//! Golden result digests for every head shape the engine has, under the
//! three time scopes, at one and four seats.
//!
//! The values in [`GOLDEN`] were recorded at the commit before the engine's
//! join → coexistence → `EXISTS` → head pipeline was rewritten to carry index
//! rows instead of cloned pathways (PR 14). `digest_result` folds columns,
//! row order, pathway bindings, select values and assertion intervals, so a
//! rewrite of that pipeline must reproduce every one of them bit for bit.
//! On a mismatch the test prints the whole table in source form.

use nepal::core::{digest_result, engine_over, Engine};
use nepal::graph::{TemporalGraph, Uid, KEYFRAME_INTERVAL};
use nepal::schema::{format_ts, Ts, Value};
use nepal::workload::{generate_tier_churned, SizeTier};
use std::sync::Arc;

const DAY: Ts = 86_400_000_000;
const SEED: u64 = 14;

/// Head shapes; `{vnf}`, `{vnf2}` and `{host}` are replaced by unique ids of
/// the generated inventory (`{vnf}` is a hot-set VNF when the tier has one).
const SHAPES: [(&str, &str); 16] = [
    ("retrieve_one", "Retrieve P From PATHS P Where P MATCHES VNF(vnf_id={vnf})->[Vertical()]{1,6}->Host()"),
    (
        "retrieve_two",
        "Retrieve A, B From PATHS A, PATHS B Where A MATCHES VNF(vnf_id={vnf})->[Vertical()]{1,6}->Host() \
         And B MATCHES Host()->ServerSwitch()->Switch() And target(A) = source(B)",
    ),
    (
        "select_projection",
        "Select target(P).host_id, length(P) From PATHS P Where P MATCHES VNF(vnf_id={vnf})->[Vertical()]{1,6}->Host()",
    ),
    ("count", "Select count(P) From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()"),
    (
        "count_distinct",
        "Select count(distinct target(P)), count(target(P)), count(distinct P) From PATHS P \
         Where P MATCHES VFC()->OnVM()->Container(status='Green')->OnServer()->Host()",
    ),
    (
        "min_max_sum",
        "Select min(length(P)), max(length(P)), sum(length(P)), avg(length(P)), min(target(P).host_id), 'tag' \
         From PATHS P Where P MATCHES VNF(vnf_id={vnf})->[Vertical()]{1,6}->Host()",
    ),
    (
        "join_count",
        "Select count(A), count(distinct B) From PATHS A, PATHS B Where A MATCHES VFC()->OnVM()->Container()->OnServer()->Host() \
         And B MATCHES Host()->ServerSwitch()->Switch() And target(A) = source(B)",
    ),
    (
        "join_nested",
        "Retrieve A, B From PATHS A, PATHS B Where A MATCHES VNF(vnf_id={vnf})->[Vertical()]{1,6}->Host() \
         And B MATCHES VNF(vnf_id={vnf2})->[Vertical()]{1,6}->Host() And length(A) = length(B) And target(A) != target(B)",
    ),
    (
        "unary_filter",
        "Select source(P), target(P) From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(host_id={host}) \
         And length(P) = 3",
    ),
    (
        "exists",
        "Retrieve V From PATHS V Where V MATCHES VM() And EXISTS( Retrieve P From PATHS P \
         Where P MATCHES VNF(vnf_id={vnf})->[Vertical()]{1,3}->VM() And target(V) = target(P) )",
    ),
    (
        "join_not_exists",
        "Select count(A) From PATHS A, PATHS B Where A MATCHES VFC()->OnVM()->Container() And B MATCHES Container()->OnServer()->Host(host_id={host}) \
         And target(A) = source(B) And NOT EXISTS( Retrieve P From PATHS P \
         Where P MATCHES VNF(vnf_id={vnf})->ComposedOf()->VFC() And source(A) = target(P) )",
    ),
    (
        "two_snapshot",
        "Select count(P) From PATHS P(@'{t1}'), PATHS Q(@'{t2}') Where P MATCHES VNF(vnf_id={vnf})->[Vertical()]{1,6}->Host() \
         And Q MATCHES VNF(vnf_id={vnf})->[Vertical()]{1,6}->Host() And source(P) = source(Q) And target(P) = target(Q)",
    ),
    ("when_exists", "When Exists From PATHS P Where P MATCHES VNF(vnf_id={vnf})->[Vertical()]{1,6}->Host()"),
    (
        "first_time",
        "First Time When Exists From PATHS P Where P MATCHES VNF(vnf_id={vnf})->[Vertical()]{1,3}->Container(status='Green')",
    ),
    (
        "last_time",
        "Last Time When Exists From PATHS P Where P MATCHES VNF(vnf_id={vnf})->[Vertical()]{1,3}->Container(status='Green')",
    ),
    (
        "when_exists_join",
        "When Exists From PATHS A, PATHS B Where A MATCHES VNF(vnf_id={vnf})->[Vertical()]{1,3}->Container(status='Green') \
         And B MATCHES Container()->OnServer()->Host() And target(A) = source(B)",
    ),
];

const SCOPES: [&str; 3] = ["current", "as_of", "range"];

/// `GOLDEN[shape][scope]`, recorded at the parent commit (see module docs).
const GOLDEN: [[u64; 3]; 16] = [
    [0xb64b9af78ea5edb5, 0xb64b9af78ea5edb5, 0x5521611e5cee9939], // retrieve_one
    [0x3bc8d4588c4a7a31, 0x3bc8d4588c4a7a31, 0x09aed9aad68a77f7], // retrieve_two
    [0xe54f472d25f56996, 0xe54f472d25f56996, 0xdd1a209a99a08b4c], // select_projection
    [0xa205c7be95a9941b, 0xa205c7be95a9941b, 0x9ba591c7af69344d], // count
    [0x23d411a181f89d9a, 0xa60b950bbbf0ba7e, 0x64d26596aa90516e], // count_distinct
    [0xfedbebb310bd81ba, 0xfedbebb310bd81ba, 0xfedbebb310bd81ba], // min_max_sum
    [0x496a1fb64cf57f89, 0x496a1fb64cf57f89, 0xf099650acdce7d1b], // join_count
    [0xdcfe70a454421797, 0xdcfe70a454421797, 0x5ee812fd2c7b3c01], // join_nested
    [0x44b72943cf526d11, 0x44b72943cf526d11, 0xdbfd237bcbf72545], // unary_filter
    [0x10df130923a7470b, 0x10df130923a7470b, 0xcded75d1d6fa51f5], // exists
    [0x813354737b3eefe9, 0x813354737b3eefe9, 0x813354737b3eefe9], // join_not_exists
    [0x6a5d1130c7e7d5de, 0x6a5d1130c7e7d5de, 0x6a5d1130c7e7d5de], // two_snapshot
    [0x5e05dfd27ce1db78, 0xcfd45772856ac58b, 0x5e05dfd27ce1db78], // when_exists
    [0x82e1317a576ea791, 0xa6cc89459f60f48a, 0x82e1317a576ea791], // first_time
    [0x863090e32fdf6dec, 0x25ebebb27583d228, 0x863090e32fdf6dec], // last_time
    [0x5e05dfd27ce1db78, 0xcfd45772856ac58b, 0x5e05dfd27ce1db78], // when_exists_join
];

fn unique_id(g: &TemporalGraph, uid: Uid, field: &str) -> i64 {
    let cls = g.class_of(uid).expect("generated uid");
    let idx = g.schema().all_fields(cls).iter().position(|f| f.name == field).expect("unique id field");
    match g.current_fields(uid).expect("alive")[idx] {
        Value::Int(id) => id,
        ref other => panic!("{field} is {other:?}"),
    }
}

fn world() -> (Engine, Vec<String>) {
    let tier = SizeTier::Small;
    let (topo, _) = generate_tier_churned(tier, SEED);
    let g = &topo.graph;
    let hot = |uids: &[Uid]| {
        uids.iter().copied().find(|&u| g.versions(u).len() > KEYFRAME_INTERVAL && g.current_fields(u).is_some())
    };
    let vnf = hot(&topo.vnfs).unwrap_or(topo.vnfs[0]);
    let vnf2 = *topo.vnfs.iter().find(|&&u| u != vnf && g.current_fields(u).is_some()).expect("a second VNF");
    let host = topo.hosts[topo.hosts.len() / 2];
    let start = topo.params.start_ts;
    let broad_days = tier.broad_churn(SEED).days as Ts;
    let (_, hot_days) = tier.hot_churn();
    // Whole seconds: the query syntax carries no sub-second precision.
    let sec = |t: Ts| t - t % 1_000_000;
    let t1 = sec(start + (broad_days / 2) * DAY + DAY / 2);
    let t2 = sec(start + (broad_days + 1 + hot_days as Ts / 2) * DAY + DAY / 2);
    let fill = |text: &str| {
        text.replace("{vnf}", &unique_id(g, vnf, "vnf_id").to_string())
            .replace("{vnf2}", &unique_id(g, vnf2, "vnf_id").to_string())
            .replace("{host}", &unique_id(g, host, "host_id").to_string())
            .replace("{t1}", &format_ts(t1))
            .replace("{t2}", &format_ts(t2))
    };
    let mut queries = Vec::new();
    for (_, shape) in SHAPES {
        let q = fill(shape);
        queries.push(q.clone());
        queries.push(format!("AT '{}' {q}", format_ts(t1)));
        queries.push(format!("AT '{}' : '{}' {q}", format_ts(t1), format_ts(t2)));
    }
    (engine_over(Arc::new(topo.graph)), queries)
}

#[test]
fn head_digests_match_the_recorded_ones_at_one_and_four_seats() {
    let (mut engine, queries) = world();
    let mut seen = [[0u64; 3]; 16];
    let mut rows = [[0usize; 3]; 16];
    for threads in [1usize, 4] {
        engine.eval_options.threads = threads;
        for (k, text) in queries.iter().enumerate() {
            let (shape, scope) = (k / 3, k % 3);
            let r =
                engine.query(text).unwrap_or_else(|e| panic!("{} / {}: {e}\n{text}", SHAPES[shape].0, SCOPES[scope]));
            let d = digest_result(&r);
            if threads == 1 {
                seen[shape][scope] = d;
                rows[shape][scope] = r.rows.len();
            } else {
                assert_eq!(
                    d, seen[shape][scope],
                    "{} / {}: four seats differ from one",
                    SHAPES[shape].0, SCOPES[scope]
                );
            }
        }
    }
    // The shapes must exercise their heads: a table of empty results would
    // pin nothing.
    let non_empty = rows.iter().flatten().filter(|&&n| n > 0).count();
    assert!(non_empty >= 36, "only {non_empty} of 48 (shape, scope) results are non-empty: {rows:?}");
    if seen != GOLDEN {
        let mut table = String::from("const GOLDEN: [[u64; 3]; 16] = [\n");
        for (row, (name, _)) in seen.iter().zip(SHAPES) {
            table.push_str(&format!("    [{:#018x}, {:#018x}, {:#018x}], // {name}\n", row[0], row[1], row[2]));
        }
        table.push_str("];");
        panic!("result digests differ from the recorded ones; this run produced:\n{table}\nrows: {rows:?}");
    }
}
