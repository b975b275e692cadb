//! `count(A)` over two variables joined by one end equality is answered
//! from two by-end maps (Σₖ cA(k)·cB(k)) instead of the join, and gives the
//! count the enumerated join gives.
//!
//! - All four end pairings (source/target × source/target) on the churned
//!   toy tier, at one and four seats: the folded count equals the rows of
//!   the same join retrieved, and a brute-force count over the two
//!   variables' pathways.
//! - One side `USING pg`, one side without the `count_at_union` proof (it
//!   enumerates) and one empty side fold as well.
//! - Near-misses take the general path (no fold is reported, the join runs)
//!   and agree with a brute-force count: a second condition, `!=`,
//!   `count(distinct A)`, `AT`, and a per-variable `@t`.
//! - A tripped token fails the query typed, never with a partial count.

mod common;

use std::sync::Arc;

use common::{live_ids, mutation_span};
use nepal::core::{engine_over, Engine, NepalError, QueryResult, RelationalBackend};
use nepal::graph::TemporalGraph;
use nepal::obs::QueryProfile;
use nepal::rpe::{CancelToken, PathFn, Pathway};
use nepal::schema::{format_ts, Value};
use nepal::workload::{generate_tier_churned, SizeTier};

const HOPS: &str = "Host()->[ConnectedTo()]{1,2}->Host()";
const LINK: &str = "Host()->[ConnectedTo()]{2,2}->Host()";

fn graph() -> Arc<TemporalGraph> {
    let (topo, _) = generate_tier_churned(SizeTier::Toy, 42);
    Arc::new(topo.graph)
}

fn engine(g: &Arc<TemporalGraph>) -> Engine {
    let mut engine = engine_over(g.clone());
    engine.registry.add("pg", Box::new(RelationalBackend::from_graph(g).unwrap()));
    engine
}

fn name(f: PathFn) -> &'static str {
    match f {
        PathFn::Source => "source",
        PathFn::Target => "target",
    }
}

fn the_count(r: &QueryResult) -> i64 {
    match r.rows[..] {
        [ref row] => match row.values[..] {
            [Value::Int(n)] => n,
            ref other => panic!("count is {other:?}"),
        },
        ref rows => panic!("{} rows", rows.len()),
    }
}

fn pathways(engine: &mut Engine, rpe: &str, using: &str) -> Vec<Pathway> {
    let r = engine.query(&format!("Retrieve P From PATHS P{using} Where P MATCHES {rpe}")).unwrap();
    r.rows.into_iter().map(|mut row| row.pathways.remove(0).1).collect()
}

/// The number of (a, b) pairs whose ends `fa` / `fb` are equal (`eq`) or
/// differ, by brute force.
fn pairs(a: &[Pathway], fa: PathFn, b: &[Pathway], fb: PathFn, eq: bool) -> i64 {
    a.iter().map(|p| b.iter().filter(|q| (p.end(fa) == q.end(fb)) == eq).count() as i64).sum()
}

/// The query, its count and its profile; `folded` says whether the engine
/// must fold it (both variables report a fold mode and no join ran) or
/// take the general path.
fn run(engine: &mut Engine, text: &str, folded: bool) -> (i64, QueryProfile) {
    let (r, profile) = engine.query_profiled(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    assert_eq!(r.columns.len(), 1, "{text}");
    assert!(r.rows[0].pathways.is_empty() && r.rows[0].times.is_none(), "{text}");
    let modes: Vec<_> = profile.vars.iter().map(|v| v.count).collect();
    if folded {
        assert!(modes.iter().all(Option::is_some), "{text}: {modes:?}");
        assert!(profile.joins.is_empty(), "{text}: a join ran");
    } else {
        assert!(modes.iter().all(Option::is_none), "{text}: {modes:?}");
        assert_eq!(profile.joins.len(), 2, "{text}: the join did not run");
    }
    (the_count(&r), profile)
}

#[test]
fn folded_join_counts_equal_the_enumerated_join() {
    let g = graph();
    let mut engine = engine(&g);
    let (a, b) = (pathways(&mut engine, HOPS, ""), pathways(&mut engine, LINK, ""));
    assert!(!a.is_empty() && !b.is_empty());
    let mut by_end = 0;
    for threads in [1, 4] {
        engine.eval_options.threads = threads;
        for fa in [PathFn::Source, PathFn::Target] {
            for fb in [PathFn::Source, PathFn::Target] {
                let (na, nb) = (name(fa), name(fb));
                let conds = format!("A MATCHES {HOPS} And B MATCHES {LINK} And {na}(A) = {nb}(B)");
                let want = pairs(&a, fa, &b, fb, true);
                assert!(want > 0, "{na}(A) = {nb}(B) joins nothing");
                let joined = engine.query(&format!("Retrieve A, B From PATHS A, PATHS B Where {conds}")).unwrap();
                assert_eq!(joined.rows.len() as i64, want, "{na}(A) = {nb}(B)");
                for head in ["A", "B"] {
                    let text = format!("Select count({head}) From PATHS A, PATHS B Where {conds}");
                    let (n, profile) = run(&mut engine, &text, true);
                    assert_eq!(n, want, "{text} at {threads} seat(s)");
                    by_end += profile.vars.iter().filter(|v| v.count == Some("by-end")).count();
                }
                // The equality written the other way round.
                let text = format!(
                    "Select count(A) From PATHS A, PATHS B Where A MATCHES {HOPS} And B MATCHES {LINK} \
                     And {nb}(B) = {na}(A)"
                );
                assert_eq!(run(&mut engine, &text, true).0, want, "{text}");
            }
        }
    }
    assert!(by_end > 0, "no variable was folded at Union");
}

#[test]
fn pg_sides_enumerating_sides_and_empty_sides_fold() {
    let g = graph();
    let mut engine = engine(&g);
    let host = live_ids(&g, "Host", "host_id", &[1])[0];
    let six_seeds = format!("VNF()->[Vertical()]{{1,6}}->Host(host_id={host})");
    let switch = "Host()->ServerSwitch()->Switch()";
    let join = |a: &str, using: &str, b: &str| {
        format!("Select count(A) From PATHS A, PATHS B{using} Where A MATCHES {a} And B MATCHES {b} And target(A) = source(B)")
    };
    // One side on the relational route, which enumerates.
    let (a, b) = (pathways(&mut engine, HOPS, ""), pathways(&mut engine, LINK, " USING pg"));
    let (n, profile) = run(&mut engine, &join(HOPS, " USING pg", LINK), true);
    assert_eq!(n, pairs(&a, PathFn::Target, &b, PathFn::Source, true));
    assert_eq!(profile.vars[1].count, Some("enumerate"));
    // A side without the proof enumerates; the other still folds.
    let (a, b) = (pathways(&mut engine, &six_seeds, ""), pathways(&mut engine, switch, ""));
    let (n, profile) = run(&mut engine, &join(&six_seeds, "", switch), true);
    assert!(n > 0);
    assert_eq!(n, pairs(&a, PathFn::Target, &b, PathFn::Source, true));
    assert_eq!((profile.vars[0].count, profile.vars[1].count), (Some("enumerate"), Some("by-end")));
    // An empty side: no pathway, no row.
    let empty = "Host(host_id=-1)->ServerSwitch()->Switch()";
    let (n, profile) = run(&mut engine, &join(HOPS, "", empty), true);
    assert_eq!((n, profile.vars[1].pathways), (0, 0));
}

#[test]
fn near_misses_take_the_general_path() {
    let g = graph();
    let mut engine = engine(&g);
    let (a, b) = (pathways(&mut engine, HOPS, ""), pathways(&mut engine, LINK, ""));
    let (t, s) = (PathFn::Target, PathFn::Source);
    let base = format!("A MATCHES {HOPS} And B MATCHES {LINK}");
    let joined = pairs(&a, t, &b, s, true);
    // After the last mutation every element is as it is now.
    let now = format_ts(mutation_span(&g).1 + 1);
    let distinct_a = a.iter().filter(|p| b.iter().any(|q| p.end(t) == q.end(s))).count() as i64;
    for (text, want) in [
        (format!("Select count(A) From PATHS A, PATHS B Where {base} And target(A) = source(B) And target(A) = source(B)"), joined),
        (format!("Select count(A) From PATHS A, PATHS B Where {base} And target(A) != source(B)"), pairs(&a, t, &b, s, false)),
        (format!("Select count(distinct A) From PATHS A, PATHS B Where {base} And target(A) = source(B)"), distinct_a),
        (format!("AT '{now}' Select count(A) From PATHS A, PATHS B Where {base} And target(A) = source(B)"), joined),
        (format!("Select count(A) From PATHS A(@'{now}'), PATHS B Where {base} And target(A) = source(B)"), joined),
    ] {
        assert!(want > 0, "{text}");
        assert_eq!(run(&mut engine, &text, false).0, want, "{text}");
    }
}

#[test]
fn a_tripped_token_fails_a_folded_join_typed() {
    let g = graph();
    let mut engine = engine(&g);
    let text = format!(
        "Select count(A) From PATHS A, PATHS B Where A MATCHES {HOPS} And B MATCHES {LINK} And target(A) = source(B)"
    );
    let full = the_count(&engine.query(&text).unwrap());
    let mut tripped = 0;
    for budget in [1, 2, 3, 5, 8, 30, 200, 5000] {
        for threads in [1, 4] {
            engine.eval_options.threads = threads;
            engine.eval_options.cancel = Some(CancelToken::cancel_after_polls(budget));
            match engine.query(&text) {
                Ok(r) => assert_eq!(the_count(&r), full, "a short count under budget {budget}"),
                Err(NepalError::Cancelled) => tripped += 1,
                Err(e) => panic!("{e}"),
            }
        }
    }
    assert!(tripped > 0, "no budget tripped");
}
