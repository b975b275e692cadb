//! `Current` element checks read the store's element column (one word per
//! uid: class, kind, open head, one-version chain); `AsOf` and `Range`
//! checks read that word and the uid's `since` instant, and the version
//! chain only when those two cannot settle the check. At the latest
//! mutation instant `t_max` the two scopes see the same snapshot, so every
//! query must return the same pathways under `Current` and under
//! `AsOf(t_max)`: the five fanout aggregates' RPEs and the three anchored
//! Table-1 shapes, on a churned graph, at one and four seats, before and
//! after a NEPALB1 round trip. A delete mid-path must then drop the pathway
//! at `Current` and leave it at `AsOf` before the delete.
//!
//! The column-vs-chain oracle then checks every uid's column-settled
//! answers against a brute-force scan of its version spans, at every
//! version boundary ±1 and a few fixed instants, on the churned graph and
//! on hand-built chains.

use std::sync::Arc;

use nepal::graph::{
    load_binary, save_binary, GraphView, HeatTally, Interval, IntervalSet, MatchTime, TemporalGraph, TimeFilter, Uid,
    FOREVER, KEYFRAME_INTERVAL,
};
use nepal::rpe::{evaluate, parse_rpe, plan_rpe, EvalOptions, GraphEstimator, Pathway, Seeds};
use nepal::schema::dsl::parse_schema;
use nepal::schema::time::MICROS_PER_DAY;
use nepal::schema::{Ts, Value};
use nepal::workload::{generate_tier_churned, SizeTier};

/// The RPEs of the five `fanout.aggregate` queries (the join has two).
const FANOUT: [&str; 6] = [
    "VNF()->[Vertical()]{1,6}->Host()",
    "Host()->[ConnectedTo()]{1,2}->Host()",
    "Container()->[VmNetwork()]->VirtualNetwork()",
    "Service()->[Vertical()]{1,8}->Host()",
    "VFC()->OnVM()->Container()->OnServer()->Host()",
    "Host()->ServerSwitch()->Switch()",
];

/// The latest instant any version opened or closed at.
fn latest_mutation(g: &TemporalGraph) -> Ts {
    (0..g.num_entities() as u64)
        .flat_map(|raw| g.versions(Uid(raw)))
        .flat_map(|v| [v.span.from, v.span.to])
        .filter(|&t| t != FOREVER)
        .max()
        .expect("a non-empty graph")
}

/// The unique id (`field`) of the first currently asserted entity of
/// `class` in extent order, skipping `skip` of them.
fn live_id(g: &TemporalGraph, class: &str, field: &str, skip: usize) -> i64 {
    let c = g.schema().class_by_name(class).expect("class in the schema");
    let idx = g.schema().all_fields(c).iter().position(|f| f.name == field).expect("id field");
    let uid = GraphView::new(g, TimeFilter::Current).scan_class(c).into_iter().nth(skip).expect("a live entity");
    match g.current_fields(uid).expect("alive")[idx] {
        Value::Int(id) => id,
        ref other => panic!("{field} is {other:?}"),
    }
}

/// The fanout RPEs plus top-down, bottom-up and VM-connectivity anchored
/// on live ids of `g`.
fn shapes(g: &TemporalGraph) -> Vec<String> {
    let mut rpes: Vec<String> = FANOUT.iter().map(|r| r.to_string()).collect();
    rpes.push(format!("VNF(vnf_id={})->[Vertical()]{{1,6}}->Host()", live_id(g, "VNF", "vnf_id", 1)));
    rpes.push(format!("VNF()->[Vertical()]{{1,6}}->Host(host_id={})", live_id(g, "Host", "host_id", 2)));
    rpes.push(format!("VM(vm_id={})->[ConnectedTo()]{{1,4}}->Container()", live_id(g, "VM", "vm_id", 3)));
    rpes
}

fn pathways(g: &TemporalGraph, rpe: &str, filter: TimeFilter, threads: usize) -> Vec<Pathway> {
    let plan = plan_rpe(g.schema(), &parse_rpe(rpe).unwrap(), &GraphEstimator { graph: g }).unwrap();
    let opts = EvalOptions { threads, ..Default::default() };
    evaluate(&GraphView::new(g, filter), &plan, Seeds::Anchor, &opts)
}

/// Every shape returns the same pathways at `Current` and at `AsOf(t_max)`,
/// at one and four seats; returns the one-seat `Current` results.
fn assert_current_is_as_of_latest(g: &TemporalGraph, rpes: &[String]) -> Vec<Vec<Pathway>> {
    let t_max = latest_mutation(g);
    let mut out = Vec::new();
    for rpe in rpes {
        let now = pathways(g, rpe, TimeFilter::Current, 1);
        for threads in [1, 4] {
            assert_eq!(pathways(g, rpe, TimeFilter::Current, threads), now, "{rpe}: Current at {threads} seats");
            assert_eq!(pathways(g, rpe, TimeFilter::AsOf(t_max), threads), now, "{rpe}: AsOf({t_max}) at {threads}");
        }
        out.push(now);
    }
    let non_empty = out.iter().filter(|p| !p.is_empty()).count();
    assert!(non_empty >= rpes.len() - 1, "only {non_empty} of {} shapes match anything", rpes.len());
    out
}

fn check_tier(tier: SizeTier, seed: u64) {
    let (topo, _) = generate_tier_churned(tier, seed);
    let g = topo.graph;
    let rpes = shapes(&g);
    let before = assert_current_is_as_of_latest(&g, &rpes);

    let mut buf = Vec::new();
    save_binary(&g, &mut buf).unwrap();
    let mut g2 = load_binary(g.schema().clone(), &buf, 4).unwrap();
    assert_eq!(g2.elem_column(), g.elem_column());
    assert_eq!(g2.since_column(), g.since_column());
    assert_eq!(assert_current_is_as_of_latest(&g2, &rpes), before, "the NEPALB1 round trip changed an answer");

    // Delete an interior edge of a three-hop top-down pathway, after every
    // earlier mutation.
    let top_down = &before[6];
    let victim = top_down.iter().find(|p| p.len_edges() >= 3).expect("a three-hop top-down pathway").clone();
    let edge = victim.edges().nth(1).unwrap();
    let t_del = latest_mutation(&g2) + 10;
    g2.delete(edge, t_del).unwrap();
    assert!(!pathways(&g2, &rpes[6], TimeFilter::Current, 1).contains(&victim), "deleted edge still at Current");
    for threads in [1, 4] {
        let past = pathways(&g2, &rpes[6], TimeFilter::AsOf(t_del - 1), threads);
        assert!(past.contains(&victim), "AsOf before the delete lost the pathway at {threads} seats");
    }
    assert_current_is_as_of_latest(&g2, &rpes);
    assert_eq!((g2.elem_column().to_vec(), g2.since_column().to_vec()), g2.elem_column_recount());
}

#[test]
fn current_reads_match_as_of_the_latest_instant() {
    check_tier(SizeTier::Small, 42);
}

/// The same check at the medium tier (~115k entities), where the benchmark
/// runs; release builds only (see CI).
#[test]
#[ignore]
fn current_reads_match_as_of_the_latest_instant_medium_tier() {
    check_tier(SizeTier::Medium, 42);
}

/// The index of the version of `uid` whose span holds `t`, by a linear scan.
fn scanned_index(g: &TemporalGraph, uid: Uid, t: Ts) -> Option<usize> {
    g.versions(uid).iter().position(|v| v.span.contains(t))
}

/// Every version boundary of `uid` ±1, then `extra`, `Ts::MIN` and
/// `FOREVER - 1`, sorted and distinct.
fn probe_points(g: &TemporalGraph, uid: Uid, extra: &[Ts]) -> Vec<Ts> {
    let mut points: Vec<Ts> = g
        .versions(uid)
        .iter()
        .flat_map(|v| [v.span.from, v.span.to])
        .filter(|&t| t != FOREVER)
        .flat_map(|t| [t - 1, t, t + 1])
        .chain(extra.iter().copied())
        .chain([Ts::MIN, FOREVER - 1])
        .collect();
    points.sort_unstable();
    points.dedup();
    points
}

/// The column-vs-chain oracle: for every uid of `g`, at every probe point
/// `t`, `asserted_at`, `version_index_at` and the `AsOf` element checks
/// agree with a linear scan of the spans and with the binary search; over
/// windows between probe points, the `Range` element checks agree with
/// the components of the assertion set that overlap the window. Returns
/// how many checks the columns settled and how many they left to the
/// chain.
fn assert_columns_settle_like_chains(g: &TemporalGraph, extra: &[Ts]) -> (u64, u64) {
    let mut heat = HeatTally::new(g);
    let mut checks = 0u64;
    for raw in 0..g.num_entities() as u64 {
        let uid = Uid(raw);
        let elem = g.elem(uid).expect("every uid has a word");
        let points = probe_points(g, uid, extra);
        for &t in &points {
            let want = scanned_index(g, uid, t);
            let ctx = format!("uid {raw} at {t}");
            assert_eq!(g.chain_index_at(uid, t), want, "binary search: {ctx}");
            assert_eq!(g.version_index_at(uid, t), want, "version_index_at: {ctx}");
            assert_eq!(g.asserted_at(uid, elem, t), want.is_some(), "asserted_at: {ctx}");
            let view = GraphView::new(g, TimeFilter::AsOf(t));
            let point = want.map(|_| MatchTime::Point);
            assert_eq!(view.asserted_elem(uid, elem, &mut heat), point, "AsOf asserted_elem: {ctx}");
            assert_eq!(view.matching(uid, |_| true, &mut heat), point, "AsOf matching: {ctx}");
            assert_eq!(view.alive(uid), want.is_some(), "AsOf alive: {ctx}");
            checks += 2;
        }
        let alive = g.alive_set(uid);
        // Windows from each point to itself, to the next and the third next
        // point and to `FOREVER - 1`; and to it from `Ts::MIN` and from an
        // earlier point.
        for (i, &a) in points.iter().enumerate() {
            let ends = [Some(a), points.get(i + 1).copied(), points.get(i + 3).copied(), Some(FOREVER - 1)];
            let starts = [Ts::MIN, points[i / 2]];
            let windows = ends.into_iter().flatten().map(|b| (a, b)).chain(starts.into_iter().map(|s| (s, a)));
            for (a, b) in windows {
                let comps = alive.components_overlapping(&Interval::new(a, b.saturating_add(1)));
                let want = (!comps.is_empty()).then(|| MatchTime::Intervals(IntervalSet::from_intervals(comps)));
                let ctx = format!("uid {raw} over [{a}, {b}]");
                let view = GraphView::new(g, TimeFilter::Range(a, b));
                assert_eq!(view.asserted_elem(uid, elem, &mut heat), want, "Range asserted_elem: {ctx}");
                assert_eq!(view.matching(uid, |_| true, &mut heat), want, "Range matching: {ctx}");
                assert_eq!(view.alive(uid), want.is_some(), "Range alive: {ctx}");
                checks += 2;
            }
        }
    }
    (checks - heat.chain_reads, heat.chain_reads)
}

/// The tier's load instant, then a `t_broad`- and a `t_hot`-like instant:
/// the middle day of its broad churn phase and of its hot phase.
fn churn_instants(tier: SizeTier, start_ts: Ts) -> [Ts; 3] {
    let broad_days = tier.broad_churn(0).days as Ts;
    let hot_days = tier.hot_churn().1 as Ts;
    let hot_start = start_ts + (broad_days + 1) * MICROS_PER_DAY;
    let mid = |start: Ts, days: Ts| start + (days / 2) * MICROS_PER_DAY + MICROS_PER_DAY / 2;
    [start_ts, mid(start_ts, broad_days), mid(hot_start, hot_days)]
}

fn check_columns_on_tier(tier: SizeTier, seed: u64) {
    let (topo, _) = generate_tier_churned(tier, seed);
    let extra = churn_instants(tier, topo.params.start_ts);
    let (settled, chain) = assert_columns_settle_like_chains(&topo.graph, &extra);
    // Most checks on a churned inventory never reach a chain, even at
    // probe points drawn from the chains' own boundaries.
    assert!(settled > 2 * chain, "{settled} checks settled by the columns, {chain} by the chain");
}

#[test]
fn columns_settle_like_chains_on_the_churned_tier() {
    check_columns_on_tier(SizeTier::Small, 42);
}

/// The same oracle at the medium tier, where the benchmark runs; release
/// builds only (see CI).
#[test]
#[ignore]
fn columns_settle_like_chains_on_the_churned_tier_medium_tier() {
    check_columns_on_tier(SizeTier::Medium, 42);
}

#[test]
fn columns_settle_like_chains_on_hand_built_chains() {
    let s = Arc::new(
        parse_schema(
            r#"
            node VM { vm_id: int unique, status: str }
            node Host { host_id: int unique }
            edge HostedOn { }
            allow HostedOn (VM -> Host)
            "#,
        )
        .unwrap(),
    );
    let (vm, host, hosted) =
        (s.class_by_name("VM").unwrap(), s.class_by_name("Host").unwrap(), s.class_by_name("HostedOn").unwrap());
    let mut g = TemporalGraph::new(s);
    let mut next_id = 0;
    let mut new_vm = |g: &mut TemporalGraph, ts: Ts| {
        next_id += 1;
        g.insert_node(vm, vec![Value::Int(next_id), Value::Str("Green".into())], ts).unwrap()
    };
    let status = |k: i64| vec![(1, Value::Str(format!("s{k}")))];
    let deep = 2 * KEYFRAME_INTERVAL as i64 + 5;

    // A chain longer than the keyframe interval, left open, and one closed.
    let open_deep = new_vm(&mut g, 100);
    let closed_deep = new_vm(&mut g, 100);
    for k in 1..=deep {
        g.update(open_deep, &status(k), 100 + 10 * k).unwrap();
        g.update(closed_deep, &status(k), 100 + 10 * k).unwrap();
    }
    g.delete(closed_deep, 100 + 10 * deep + 5).unwrap();
    // One open version; one closed version.
    let single = new_vm(&mut g, 200);
    let single_closed = new_vm(&mut g, 200);
    g.delete(single_closed, 300).unwrap();
    // Inserted and deleted at one instant: an empty chain.
    let empty = new_vm(&mut g, 400);
    g.delete(empty, 400).unwrap();
    assert!(g.versions(empty).is_empty());
    // A same-instant update rewrites the one version in place.
    let rewritten = new_vm(&mut g, 500);
    g.update(rewritten, &status(1), 500).unwrap();
    assert_eq!(g.versions(rewritten).len(), 1);
    // Delete after update, and a delete at the update's instant that pops
    // back to the older, closed head.
    let deleted = new_vm(&mut g, 600);
    g.update(deleted, &status(1), 650).unwrap();
    g.delete(deleted, 700).unwrap();
    let popped = new_vm(&mut g, 600);
    g.update(popped, &status(1), 650).unwrap();
    g.delete(popped, 650).unwrap();
    assert_eq!(g.versions(popped).len(), 1);
    // A moved edge: deleted from one host, a new uid on another.
    let h1 = g.insert_node(host, vec![Value::Int(1)], 50).unwrap();
    let h2 = g.insert_node(host, vec![Value::Int(2)], 50).unwrap();
    let before = g.insert_edge(hosted, single, h1, vec![], 250).unwrap();
    g.delete(before, 800).unwrap();
    let after = g.insert_edge(hosted, single, h2, vec![], 800).unwrap();

    let column = |u: Uid| (g.elem(u).unwrap().is_open(), g.elem(u).unwrap().is_single(), g.since(u).unwrap());
    assert_eq!(column(open_deep), (true, false, 100 + 10 * deep));
    assert_eq!(column(closed_deep), (false, false, 100 + 10 * deep + 5));
    assert_eq!(column(single), (true, true, 200));
    assert_eq!(column(single_closed), (false, true, 300));
    assert_eq!(column(empty), (false, false, Ts::MIN));
    assert_eq!(column(rewritten), (true, true, 500));
    assert_eq!(column(deleted), (false, false, 700));
    assert_eq!(column(popped), (false, true, 650));
    assert_eq!(column(before), (false, true, 800));
    assert_eq!(column(after), (true, true, 800));

    assert_eq!((g.elem_column().to_vec(), g.since_column().to_vec()), g.elem_column_recount());
    let (settled, chain) = assert_columns_settle_like_chains(&g, &[0, 150, 450, 1000]);
    assert!(settled > 0 && chain > 0, "{settled} settled, {chain} left to the chain");
}
