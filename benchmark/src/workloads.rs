//! The five workloads: names, reasons, sizing, and the seed-determined op
//! lists of the four read mixes. (`ingest.recover` is a fixed sequence of
//! write-side calls; see `run.rs`.)

use crate::layers::{format_ts, Anchor, SizeTier, TimeFilter, Ts, World, DAY};

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub tier: SizeTier,
    /// Nominal tail percentile; lowered per run only if fewer than ten
    /// samples would lie beyond it.
    pub tail_cap: f64,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "troubleshoot.current",
        why: "Anchored Table-1 queries on the current snapshot: unique-index seeks, so per-query fixed cost dominates.",
        tier: SizeTier::Medium,
        tail_cap: 0.99,
    },
    Spec {
        name: "timetravel.history",
        why: "Same graph and families under AT/range/two-snapshot/First Time: extent-walk anchors and delta materialization.",
        tier: SizeTier::Medium,
        tail_cap: 0.99,
    },
    Spec {
        name: "fanout.aggregate",
        why: "Unanchored many-seed aggregates and a join: Extend/Union, the worker pool and aggregate heads do the work.",
        tier: SizeTier::Medium,
        tail_cap: 0.80,
    },
    Spec {
        name: "ingest.recover",
        why: "Write side of the same store: update-by-snapshot days, direct churn, then journal and binary-snapshot recovery.",
        tier: SizeTier::Small,
        tail_cap: 0.90,
    },
    Spec {
        name: "retarget.backends",
        why: "Anchored queries issued native, USING pg and USING gremlin over loopback TCP: translation, codec and socket.",
        tier: SizeTier::Small,
        tail_cap: 0.99,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One range variable of an op, as the engine will evaluate it: the
/// traced run replays it through the planner and evaluator directly.
pub struct Var {
    pub rpe: String,
    pub filter: TimeFilter,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Native,
    Pg,
    Gremlin,
}

pub struct Op {
    pub family: usize,
    /// Full Nepal query text.
    pub text: String,
    pub vars: Vec<Var>,
    /// Single-variable `Retrieve`: engine rows must equal replayed pathways.
    pub retrieve: bool,
    /// A retargeted op re-issues the op before it on another backend, so
    /// the two must produce the same digest.
    pub route: Route,
}

pub struct Mix {
    pub families: Vec<&'static str>,
    pub ops: Vec<Op>,
}

/// SplitMix64: the op generators' only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<'a>(&mut self, roster: &'a [Anchor]) -> &'a Anchor {
        &roster[(self.next() % roster.len() as u64) as usize]
    }

    /// Every third draw comes from the hot set when the roster has one, so
    /// at least a quarter of time-travel instances touch deep chains.
    fn pick_hot<'a>(&mut self, roster: &'a [Anchor], hot: &'a [Anchor], i: usize) -> &'a Anchor {
        if i.is_multiple_of(3) && !hot.is_empty() {
            self.pick(hot)
        } else {
            self.pick(roster)
        }
    }
}

const TOP_DOWN: &str = "VNF(vnf_id={})->[Vertical()]{1,6}->Host()";
const BOTTOM_UP: &str = "VNF()->[Vertical()]{1,6}->Host(host_id={})";
const VM_CONN: &str = "VM(vm_id={})->[ConnectedTo()]{1,4}->Container()";

fn rpe(template: &str, id: i64) -> String {
    template.replace("{}", &id.to_string())
}

fn retrieve(rpe: &str) -> String {
    format!("Retrieve P From PATHS P Where P MATCHES {rpe}")
}

fn op(family: usize, text: String, vars: Vec<Var>, retrieve: bool) -> Op {
    Op { family, text, vars, retrieve, route: Route::Native }
}

/// `troubleshoot.current`: 30 % top-down, 30 % bottom-up, 25 % head
/// projection, 15 % VM-anchored connectivity (the heavy family).
fn troubleshoot(world: &World, rng: &mut Rng, len: usize) -> Mix {
    const PATTERN: [usize; 20] = [0, 1, 2, 0, 1, 3, 0, 2, 1, 0, 2, 1, 3, 0, 2, 1, 0, 2, 1, 3];
    let cur = |rpe: String| vec![Var { rpe, filter: TimeFilter::Current }];
    let ops = (0..len)
        .map(|i| match PATTERN[i % PATTERN.len()] {
            0 => {
                let r = rpe(TOP_DOWN, rng.pick(&world.vnfs).id);
                op(0, retrieve(&r), cur(r), true)
            }
            1 => {
                let r = rpe(BOTTOM_UP, rng.pick(&world.hosts).id);
                op(1, retrieve(&r), cur(r), true)
            }
            2 => {
                let r = rpe(TOP_DOWN, rng.pick(&world.vnfs).id);
                op(2, format!("Select target(P).host_id From PATHS P Where P MATCHES {r}"), cur(r), false)
            }
            _ => {
                let r = rpe(VM_CONN, rng.pick(&world.vms).id);
                op(3, retrieve(&r), cur(r), true)
            }
        })
        .collect();
    Mix { families: vec!["top_down", "bottom_up", "head_projection", "vm_connectivity"], ops }
}

fn quoted(ts: Ts) -> String {
    format!("'{}'", format_ts(ts))
}

/// `timetravel.history`: the same families under `AT 't'` (t alternating
/// between the broad and the hot churn phase), an `AT 't1' : 't2'` range,
/// the two-snapshot join and `First Time When Exists`.
fn timetravel(world: &World, rng: &mut Rng, len: usize) -> Mix {
    const PATTERN: [usize; 20] = [0, 1, 3, 4, 5, 0, 2, 1, 3, 5, 0, 4, 2, 1, 3, 5, 0, 4, 2, 1];
    let hot = |r: &[Anchor]| -> Vec<Anchor> { r.iter().filter(|a| a.hot).copied().collect() };
    let (hot_vnfs, hot_hosts, hot_vms) = (hot(&world.vnfs), hot(&world.hosts), hot(&world.vms));
    // Whole seconds: the query syntax carries no sub-second precision.
    let sec = |t: Ts| t - t % 1_000_000;
    let ops = (0..len)
        .map(|i| {
            let t = sec(if i % 2 == 0 { world.t_broad } else { world.t_hot });
            let at = |rpe: String, family: usize| {
                let text = format!("AT {} {}", quoted(t), retrieve(&rpe));
                op(family, text, vec![Var { rpe, filter: TimeFilter::AsOf(t) }], true)
            };
            match PATTERN[i % PATTERN.len()] {
                0 => at(rpe(TOP_DOWN, rng.pick_hot(&world.vnfs, &hot_vnfs, i).id), 0),
                1 => at(rpe(BOTTOM_UP, rng.pick_hot(&world.hosts, &hot_hosts, i).id), 1),
                2 => at(rpe(VM_CONN, rng.pick_hot(&world.vms, &hot_vms, i).id), 2),
                3 => {
                    let r = rpe(TOP_DOWN, rng.pick_hot(&world.vnfs, &hot_vnfs, i).id);
                    let (t1, t2) = (sec(world.t_broad), sec(world.t_hot));
                    let text = format!("AT {} : {} {}", quoted(t1), quoted(t2), retrieve(&r));
                    op(3, text, vec![Var { rpe: r, filter: TimeFilter::Range(t1, t2) }], true)
                }
                4 => {
                    let r = rpe(TOP_DOWN, rng.pick_hot(&world.vnfs, &hot_vnfs, i).id);
                    let (t1, t2) = (sec(world.start_ts + DAY / 2), sec(world.t_hot));
                    let text = format!(
                        "Select count(P) From PATHS P(@{}), PATHS Q(@{}) Where P MATCHES {r} And Q MATCHES {r} \
                         And source(P) = source(Q) And target(P) = target(Q)",
                        quoted(t1),
                        quoted(t2)
                    );
                    let vars = vec![
                        Var { rpe: r.clone(), filter: TimeFilter::AsOf(t1) },
                        Var { rpe: r, filter: TimeFilter::AsOf(t2) },
                    ];
                    op(4, text, vars, false)
                }
                _ => {
                    let r = rpe(TOP_DOWN, rng.pick_hot(&world.vnfs, &hot_vnfs, i).id);
                    let (lo, hi) = crate::layers::full_range();
                    let text = format!("First Time When Exists From PATHS P Where P MATCHES {r}");
                    op(5, text, vec![Var { rpe: r, filter: TimeFilter::Range(lo, hi) }], false)
                }
            }
        })
        .collect();
    Mix {
        families: vec![
            "at_top_down",
            "at_bottom_up",
            "at_vm_connectivity",
            "range_top_down",
            "two_snapshot",
            "first_time",
        ],
        ops,
    }
}

/// `fanout.aggregate`: five unanchored many-seed queries. Nothing is
/// parameterised per instance; the seed varies the graph they fan out over.
/// The join holds 40 % of the ops and the other four 15 % each: by latency
/// the join is the middle family, so `p50_us` sits inside its body and the
/// p90 tail inside the heaviest family's (`service_to_host`), neither on a
/// boundary between two families.
fn fanout(len: usize) -> Mix {
    const QUERIES: [(&str, &[&str]); 5] = [
        ("Select count(P) From PATHS P Where P MATCHES {0}", &["VNF()->[Vertical()]{1,6}->Host()"]),
        (
            "Select count(distinct target(P)) From PATHS P Where P MATCHES {0}",
            &["Host()->[ConnectedTo()]{1,2}->Host()"],
        ),
        ("Select count(P) From PATHS P Where P MATCHES {0}", &["Container()->[VmNetwork()]->VirtualNetwork()"]),
        ("Select count(P) From PATHS P Where P MATCHES {0}", &["Service()->[Vertical()]{1,8}->Host()"]),
        (
            "Select count(A) From PATHS A, PATHS B Where A MATCHES {0} And B MATCHES {1} And target(A) = source(B)",
            &["VFC()->OnVM()->Container()->OnServer()->Host()", "Host()->ServerSwitch()->Switch()"],
        ),
    ];
    const PATTERN: [usize; 20] = [4, 1, 4, 0, 4, 2, 4, 3, 4, 1, 0, 4, 2, 3, 4, 1, 0, 4, 2, 3];
    let ops = (0..len)
        .map(|i| {
            let family = PATTERN[i % PATTERN.len()];
            let (template, rpes) = QUERIES[family];
            let mut text = template.to_string();
            for (k, r) in rpes.iter().enumerate() {
                text = text.replace(&format!("{{{k}}}"), r);
            }
            let vars = rpes.iter().map(|r| Var { rpe: r.to_string(), filter: TimeFilter::Current }).collect();
            op(family, text, vars, false)
        })
        .collect();
    Mix {
        families: vec!["vnf_to_host", "host_to_host", "container_to_network", "service_to_host", "placement_join"],
        ops,
    }
}

/// `retarget.backends`: each anchored instance issued three ways in a row;
/// a family is a route. The shapes are the Table-1 families cut to what the
/// Gremlin route answers in milliseconds: top-down from a VFC, bottom-up by
/// host, and two-hop VM connectivity. (From a VNF, or over four hops, one
/// Gremlin op takes 0.1-1 s at this tier and a window holds too few.)
fn retarget(world: &World, rng: &mut Rng, len: usize) -> Mix {
    const ROUTES: [(Route, &str); 3] =
        [(Route::Native, ""), (Route::Pg, " USING pg"), (Route::Gremlin, " USING gremlin")];
    let mut ops = Vec::new();
    for instance in 0..len / ROUTES.len() {
        let r = match instance % 3 {
            0 => rpe("VFC(vfc_id={})->[Vertical()]{1,3}->Host()", rng.pick(&world.vfcs).id),
            1 => rpe(BOTTOM_UP, rng.pick(&world.hosts).id),
            _ => rpe("VM(vm_id={})->[ConnectedTo()]{1,2}->Container()", rng.pick(&world.vms).id),
        };
        for (family, (route, using)) in ROUTES.into_iter().enumerate() {
            ops.push(Op {
                family,
                text: format!("Retrieve P From PATHS P{using} Where P MATCHES {r}"),
                vars: vec![Var { rpe: r.clone(), filter: TimeFilter::Current }],
                retrieve: true,
                route,
            });
        }
    }
    Mix { families: vec!["native", "pg", "gremlin"], ops }
}

/// The op list of a read workload for this seed.
pub fn mix(name: &str, world: &World, seed: u64) -> Mix {
    let mut rng = Rng::new(seed ^ 0x0B5E_55ED);
    match name {
        "troubleshoot.current" => troubleshoot(world, &mut rng, 1000),
        "timetravel.history" => timetravel(world, &mut rng, 800),
        "fanout.aggregate" => fanout(20),
        "retarget.backends" => retarget(world, &mut rng, 360),
        other => panic!("{other} has no read mix"),
    }
}
