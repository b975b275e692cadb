//! Time-filtered views over the temporal graph.
//!
//! The three query temporalities of §4:
//! - [`TimeFilter::Current`] — the current snapshot (default).
//! - [`TimeFilter::AsOf`] — a timeslice query (`AT '2017-02-15 10:00:00'`).
//! - [`TimeFilter::Range`] — a time-range query (`AT 't1' : 't2'`), whose
//!   results carry maximal assertion intervals.

use std::borrow::Cow;

use nepal_schema::{ClassId, Ts, Value};

use crate::interval::{Interval, IntervalSet};
use crate::store::{materialize_version, AdjEntry, ElemWord, HeatTally, Liveness, TemporalGraph, Uid, Version};

/// The temporal scope a query (or one range variable) executes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeFilter {
    /// The current snapshot.
    Current,
    /// A past snapshot at one time point.
    AsOf(Ts),
    /// A closed time range `[from, to]` (both ends inclusive, per the
    /// paper's `AT 't1' : 't2'` syntax).
    Range(Ts, Ts),
}

impl TimeFilter {
    /// The filter as an interval for overlap testing. `Current` and `AsOf`
    /// become degenerate one-microsecond probes.
    pub fn probe(&self) -> Interval {
        match self {
            TimeFilter::Current => Interval::since(crate::interval::FOREVER - 1),
            TimeFilter::AsOf(t) => Interval::new(*t, t + 1),
            TimeFilter::Range(a, b) => Interval::new(*a, b.saturating_add(1)),
        }
    }

    /// Is this a range filter (results must carry interval sets)?
    pub fn is_range(&self) -> bool {
        matches!(self, TimeFilter::Range(_, _))
    }
}

/// How an element satisfies an atom under a time filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchTime {
    /// Point filters: the element matches at the probe point.
    Point,
    /// Range filters: the (maximal, un-clamped) assertion intervals of the
    /// versions that satisfy the predicate and overlap the range.
    Intervals(IntervalSet),
}

/// Deterministic store-access cost of reading one element under a view:
/// how many version reads the filter implies, split into delta-chain
/// materializations vs. keyframe hits, plus the field-slot bytes touched.
///
/// Unlike the physical per-class heatmap (which counts every actual read,
/// including re-derivations by parallel workers), this is a *pure function
/// of store state* — the same element under the same filter always costs
/// the same — which is what makes per-query resource meters identical
/// between sequential and parallel execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCost {
    pub materializations: u64,
    pub keyframe_hits: u64,
    pub bytes: u64,
}

impl AccessCost {
    pub fn add(&mut self, other: AccessCost) {
        self.materializations += other.materializations;
        self.keyframe_hits += other.keyframe_hits;
        self.bytes += other.bytes;
    }
}

/// A read-only, time-scoped view of a [`TemporalGraph`].
#[derive(Clone, Copy)]
pub struct GraphView<'g> {
    pub graph: &'g TemporalGraph,
    pub filter: TimeFilter,
}

impl<'g> GraphView<'g> {
    pub fn new(graph: &'g TemporalGraph, filter: TimeFilter) -> Self {
        GraphView { graph, filter }
    }

    /// Field values of `uid` under this view (for point filters: the single
    /// relevant version; for range filters: the *latest* version overlapping
    /// the range — selection expressions on range queries are evaluated per
    /// pathway result via [`GraphView::matching`]).
    ///
    /// Borrowed for full-stored versions (the current snapshot always is);
    /// owned when a delta-encoded history version had to be materialized.
    pub fn fields(&self, uid: Uid) -> Option<Cow<'g, [Value]>> {
        match self.filter {
            TimeFilter::Current => self.graph.current_version(uid).map(|v| {
                self.graph.note_version_read(uid, false, v.fields().len());
                Cow::Borrowed(v.fields())
            }),
            TimeFilter::AsOf(t) => {
                let i = self.graph.version_index_at(uid, t)?;
                let vs = self.graph.versions(uid);
                self.graph.note_version_read(uid, vs[i].is_delta(), record_width(vs));
                Some(materialize_version(vs, i))
            }
            TimeFilter::Range(a, b) => {
                let probe = Interval::new(a, b.saturating_add(1));
                let range = self.graph.overlap_range(uid, &probe);
                let i = range.end.checked_sub(1).filter(|i| range.contains(i))?;
                let vs = self.graph.versions(uid);
                self.graph.note_version_read(uid, vs[i].is_delta(), record_width(vs));
                Some(materialize_version(vs, i))
            }
        }
    }

    /// The deterministic access cost of reading `uid` under this view —
    /// see [`AccessCost`]. Zero-cost for elements not asserted within the
    /// filter (only the binary search over spans touches them).
    pub fn access_cost(&self, uid: Uid) -> AccessCost {
        let vs = self.graph.versions(uid);
        let Some(head) = vs.last() else { return AccessCost::default() };
        let bytes_per = head.fields().len() as u64 * crate::store::VALUE_SLOT_BYTES;
        let mut cost = AccessCost::default();
        let mut note = |is_delta: bool| {
            if is_delta {
                cost.materializations += 1;
            } else {
                cost.keyframe_hits += 1;
            }
            cost.bytes += bytes_per;
        };
        match self.filter {
            TimeFilter::Current => {
                if head.span.is_current() {
                    note(false); // the chain head is always stored full
                }
            }
            TimeFilter::AsOf(t) => {
                if let Some(i) = self.graph.version_index_at(uid, t) {
                    note(vs[i].is_delta());
                }
            }
            TimeFilter::Range(a, b) => {
                let probe = Interval::new(a, b.saturating_add(1));
                for i in self.graph.overlap_range(uid, &probe) {
                    note(vs[i].is_delta());
                }
            }
        }
        cost
    }

    /// Test `uid` against a field predicate under this view, tallying the
    /// version reads it makes on `heat`.
    ///
    /// Returns `None` if the element does not satisfy the predicate within
    /// the filter; otherwise how/when it matches. An atom without field
    /// predicates has nothing to test: use [`GraphView::asserted`], which
    /// materializes no version.
    pub fn matching<F>(&self, uid: Uid, pred: F, heat: &mut HeatTally<'g>) -> Option<MatchTime>
    where
        F: Fn(&[Value]) -> bool,
    {
        let elem = self.graph.elem(uid)?;
        let class = elem.class();
        match self.filter {
            TimeFilter::Current => {
                // Hot path: the chain head is always stored full.
                let v = self.graph.current_version(uid)?;
                heat.version_read(class, false, v.fields().len());
                pred(v.fields()).then_some(MatchTime::Point)
            }
            TimeFilter::AsOf(t) => {
                let vs = self.graph.versions(uid);
                let i = match self.liveness_at(uid, elem, t, heat) {
                    Liveness::Dead => return None,
                    Liveness::Head => vs.len() - 1,
                    Liveness::Chain => self.graph.chain_index_at(uid, t)?,
                };
                heat.version_read(class, vs[i].is_delta(), record_width(vs));
                pred(&materialize_version(vs, i)).then_some(MatchTime::Point)
            }
            TimeFilter::Range(a, b) => {
                let vs = self.graph.versions(uid);
                match self.liveness_over(uid, elem, a, b, heat) {
                    Liveness::Dead => return None,
                    Liveness::Head => {
                        // The chain's one version: a maximal run by itself.
                        let head = vs.last()?;
                        heat.version_read(class, false, head.fields().len());
                        return pred(head.fields())
                            .then(|| MatchTime::Intervals(IntervalSet::from_interval(head.span)));
                    }
                    Liveness::Chain => {}
                }
                let probe = Interval::new(a, b.saturating_add(1));
                let width = record_width(vs);
                let mut set = IntervalSet::empty();
                for i in self.graph.overlap_range(uid, &probe) {
                    heat.version_read(class, vs[i].is_delta(), width);
                    if pred(&materialize_version(vs, i)) {
                        set.push(vs[i].span);
                    }
                }
                if set.is_empty() {
                    None
                } else {
                    // Maximal assertion ranges: extend each satisfying run
                    // beyond the probe window. Versions outside the window
                    // with the same satisfying predicate extend the run.
                    Some(MatchTime::Intervals(self.extend_maximal(uid, set, &pred)))
                }
            }
        }
    }

    /// When `uid` is asserted under this view, whatever its field values:
    /// what [`GraphView::matching`] returns for a predicate that is always
    /// true, answered from the element column at `Current`, from it and the
    /// `since` column when they settle the check otherwise, and from the
    /// version spans when they do not. No version is materialized
    /// (`matching` clones the keyframe and replays deltas before calling a
    /// predicate that ignores them, and under a range re-materializes the
    /// whole chain to extend the runs), so each version consulted tallies
    /// as a replay-free read of zero bytes.
    pub fn asserted(&self, uid: Uid, heat: &mut HeatTally<'g>) -> Option<MatchTime> {
        self.asserted_elem(uid, self.graph.elem(uid)?, heat)
    }

    /// [`GraphView::asserted`] for a caller that has already read `uid`'s
    /// element-column word. `Current` is answered from the word alone;
    /// `AsOf` and `Range` from the word and the uid's `since` instant when
    /// the store's liveness rule settles them (see
    /// [`TemporalGraph::asserted_at`]), and from the version spans
    /// otherwise. Either way the tally is the chain path's.
    pub fn asserted_elem(&self, uid: Uid, elem: ElemWord, heat: &mut HeatTally<'g>) -> Option<MatchTime> {
        let class = elem.class();
        match self.filter {
            TimeFilter::Current => {
                if !elem.is_open() {
                    return None;
                }
                heat.version_read(class, false, 0);
                Some(MatchTime::Point)
            }
            TimeFilter::AsOf(t) => {
                let alive = match self.liveness_at(uid, elem, t, heat) {
                    Liveness::Dead => false,
                    Liveness::Head => true,
                    Liveness::Chain => self.graph.chain_index_at(uid, t).is_some(),
                };
                if !alive {
                    return None;
                }
                heat.version_read(class, false, 0);
                Some(MatchTime::Point)
            }
            TimeFilter::Range(a, b) => {
                match self.liveness_over(uid, elem, a, b, heat) {
                    Liveness::Dead => return None,
                    Liveness::Head => {
                        // One open version: its span is the only component.
                        heat.version_read(class, false, 0);
                        let span = Interval::since(self.graph.since(uid)?);
                        return Some(MatchTime::Intervals(IntervalSet::from_interval(span)));
                    }
                    Liveness::Chain => {}
                }
                let probe = Interval::new(a, b.saturating_add(1));
                let in_window = self.graph.overlap_range(uid, &probe);
                if in_window.is_empty() {
                    return None;
                }
                in_window.for_each(|_| heat.version_read(class, false, 0));
                // Every version satisfies the (absent) predicate, so the
                // maximal runs are the components of the whole assertion
                // set, and a component holds an in-window version exactly
                // when it overlaps the window.
                let comps = self.graph.alive_set(uid).components_overlapping(&probe);
                Some(MatchTime::Intervals(IntervalSet::from_intervals(comps)))
            }
        }
    }

    /// [`TemporalGraph::liveness_at`], counting a check it leaves to the
    /// chain on `heat`.
    fn liveness_at(&self, uid: Uid, elem: ElemWord, t: Ts, heat: &mut HeatTally<'g>) -> Liveness {
        let l = self.graph.liveness_at(uid, elem, t);
        heat.chain_reads += (l == Liveness::Chain) as u64;
        l
    }

    /// [`TemporalGraph::liveness_over`], counting a check it leaves to the
    /// chain on `heat`.
    fn liveness_over(&self, uid: Uid, elem: ElemWord, a: Ts, b: Ts, heat: &mut HeatTally<'g>) -> Liveness {
        let l = self.graph.liveness_over(uid, elem, a, b);
        heat.chain_reads += (l == Liveness::Chain) as u64;
        l
    }

    /// Extend satisfying runs to their maximal extent outside the probe
    /// window (the paper reports e.g. a 06:30 start for a 09:00 window).
    fn extend_maximal<F>(&self, uid: Uid, set: IntervalSet, pred: &F) -> IntervalSet
    where
        F: Fn(&[Value]) -> bool,
    {
        let mut all = IntervalSet::empty();
        let vs = self.graph.versions(uid);
        for i in 0..vs.len() {
            if pred(&materialize_version(vs, i)) {
                all.push(vs[i].span);
            }
        }
        // Keep the maximal components that contain any satisfying-in-window
        // interval.
        let comps: Vec<Interval> =
            all.intervals().iter().filter(|c| set.intervals().iter().any(|s| c.overlaps(s))).copied().collect();
        IntervalSet::from_intervals(comps)
    }

    /// Is the element asserted (any version) under this view, ignoring
    /// predicates?
    pub fn alive(&self, uid: Uid) -> bool {
        let Some(elem) = self.graph.elem(uid) else { return false };
        match self.filter {
            TimeFilter::Current => elem.is_open(),
            TimeFilter::AsOf(t) => self.graph.asserted_at(uid, elem, t),
            TimeFilter::Range(a, b) => match self.graph.liveness_over(uid, elem, a, b) {
                Liveness::Dead => false,
                Liveness::Head => true,
                Liveness::Chain => {
                    !self.graph.versions_overlapping(uid, &Interval::new(a, b.saturating_add(1))).is_empty()
                }
            },
        }
    }

    /// Outgoing adjacency of a node, filtered to edges alive under the view.
    pub fn out_edges(&self, uid: Uid) -> impl Iterator<Item = AdjEntry> + '_ {
        let me = *self;
        self.graph.out_adj(uid).iter().copied().filter(move |a| me.alive(a.edge))
    }

    /// Incoming adjacency of a node, filtered to edges alive under the view.
    pub fn in_edges(&self, uid: Uid) -> impl Iterator<Item = AdjEntry> + '_ {
        let me = *self;
        self.graph.in_adj(uid).iter().copied().filter(move |a| me.alive(a.edge))
    }

    /// All uids of `class` (and subclasses) alive under this view.
    pub fn scan_class(&self, class: ClassId) -> Vec<Uid> {
        let mut out = Vec::new();
        for c in self.graph.schema().descendants(class) {
            for &u in self.graph.extent_exact(c) {
                if self.alive(u) {
                    out.push(u);
                }
            }
        }
        out
    }
}

/// Field count of an entity's record: the chain head is always stored
/// full, so its field vector gives the width without materializing.
fn record_width(vs: &[Version]) -> usize {
    vs.last().map_or(0, |h| h.fields().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ClassHeatSnapshot;
    use nepal_schema::dsl::parse_schema;
    use std::sync::Arc;

    fn setup() -> (TemporalGraph, Uid) {
        let s = Arc::new(parse_schema("node VM { vm_id: int unique, status: str }").unwrap());
        let mut g = TemporalGraph::new(s.clone());
        let c = s.class_by_name("VM").unwrap();
        let u = g.insert_node(c, vec![Value::Int(1), Value::Str("Green".into())], 100).unwrap();
        g.update(u, &[(1, Value::Str("Red".into()))], 200).unwrap();
        g.update(u, &[(1, Value::Str("Green".into()))], 300).unwrap();
        (g, u)
    }

    #[test]
    fn point_filters_pick_the_right_version() {
        let (g, u) = setup();
        let green = |f: &[Value]| f[1] == Value::Str("Green".into());
        assert!(GraphView::new(&g, TimeFilter::AsOf(150)).matching(u, green, &mut HeatTally::new(&g)).is_some());
        assert!(GraphView::new(&g, TimeFilter::AsOf(250)).matching(u, green, &mut HeatTally::new(&g)).is_none());
        assert!(GraphView::new(&g, TimeFilter::Current).matching(u, green, &mut HeatTally::new(&g)).is_some());
        assert!(GraphView::new(&g, TimeFilter::AsOf(50)).matching(u, green, &mut HeatTally::new(&g)).is_none());
        // before birth
    }

    #[test]
    fn range_filter_returns_maximal_intervals() {
        let (g, u) = setup();
        let green = |f: &[Value]| f[1] == Value::Str("Green".into());
        let v = GraphView::new(&g, TimeFilter::Range(150, 180));
        match v.matching(u, green, &mut HeatTally::new(&g)).unwrap() {
            MatchTime::Intervals(set) => {
                // The maximal Green run is [100, 200), not clamped to window.
                assert_eq!(set.intervals(), &[Interval::new(100, 200)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A window spanning both green runs reports both maximal components.
        let v = GraphView::new(&g, TimeFilter::Range(150, 350));
        match v.matching(u, green, &mut HeatTally::new(&g)).unwrap() {
            MatchTime::Intervals(set) => assert_eq!(set.intervals().len(), 2),
            other => panic!("unexpected {other:?}"),
        };
    }

    #[test]
    fn range_filter_outside_assertion_is_none() {
        let (g, u) = setup();
        let v = GraphView::new(&g, TimeFilter::Range(0, 50));
        assert!(v.matching(u, |_| true, &mut HeatTally::new(&g)).is_none());
        assert!(v.asserted(u, &mut HeatTally::new(&g)).is_none());
    }

    #[test]
    fn access_cost_is_deterministic_per_filter() {
        let (g, u) = setup();
        let cur = GraphView::new(&g, TimeFilter::Current).access_cost(u);
        // The chain head is always a full keyframe.
        assert_eq!(cur.keyframe_hits, 1);
        assert_eq!(cur.materializations, 0);
        assert!(cur.bytes > 0);
        // Pure function of store state: same call, same answer.
        assert_eq!(cur, GraphView::new(&g, TimeFilter::Current).access_cost(u));
        // One version read for a timeslice, however it is encoded.
        let asof = GraphView::new(&g, TimeFilter::AsOf(150)).access_cost(u);
        assert_eq!(asof.keyframe_hits + asof.materializations, 1);
        // A range covering the whole history reads all three versions.
        let range = GraphView::new(&g, TimeFilter::Range(0, 400)).access_cost(u);
        assert_eq!(range.keyframe_hits + range.materializations, 3);
        assert_eq!(range.bytes, 3 * cur.bytes);
        // Before birth: nothing is read.
        assert_eq!(GraphView::new(&g, TimeFilter::AsOf(50)).access_cost(u), AccessCost::default());
    }

    #[test]
    fn read_path_maintains_class_heatmap() {
        let (g, u) = setup();
        let class = g.class_of(u).unwrap();
        let before = g.class_heat(class);
        let v = GraphView::new(&g, TimeFilter::Current);
        let mut tally = HeatTally::new(&g);
        let _ = v.matching(u, |_| true, &mut tally);
        // Tallied reads reach the heatmap when the tally is flushed.
        assert_eq!(g.class_heat(class), before);
        tally.flush();
        let after = g.class_heat(class);
        assert_eq!(after.keyframe_hits, before.keyframe_hits + 1);
        assert!(after.bytes_read > before.bytes_read);
        let _ = v.scan_class(class);
        let scanned = g.class_heat(class);
        assert!(scanned.scans > after.scans);
        assert!(scanned.scan_rows > after.scan_rows);
        assert!(scanned.is_hot());
    }

    /// The access cost of the versions the chain path reads for `uid`:
    /// the open head at `Current`, the binary search's version at `AsOf`,
    /// every version overlapping the window at `Range`.
    fn chain_cost(g: &TemporalGraph, uid: Uid, filter: TimeFilter) -> AccessCost {
        let vs = g.versions(uid);
        let read: Vec<usize> = match filter {
            TimeFilter::Current => (0..vs.len()).filter(|&i| vs[i].span.is_current()).collect(),
            TimeFilter::AsOf(t) => g.chain_index_at(uid, t).into_iter().collect(),
            TimeFilter::Range(a, b) => g.overlap_range(uid, &Interval::new(a, b.saturating_add(1))).collect(),
        };
        let mut cost = AccessCost::default();
        for i in read {
            cost.materializations += vs[i].is_delta() as u64;
            cost.keyframe_hits += !vs[i].is_delta() as u64;
            cost.bytes += record_width(vs) as u64 * crate::store::VALUE_SLOT_BYTES;
        }
        cost
    }

    #[test]
    fn predicate_less_atoms_never_materialize() {
        use crate::store::KEYFRAME_INTERVAL;
        // A chain deeper than the keyframe interval, so history versions
        // are delta-encoded.
        let (mut g, u) = setup();
        let depth = 2 * KEYFRAME_INTERVAL as i64 + 5;
        for k in 0..depth {
            g.update(u, &[(1, Value::Str(format!("s{k}")))], 400 + 10 * k).unwrap();
        }
        let class = g.class_of(u).unwrap();
        let last = 400 + 10 * (depth - 1);
        // A one-version element: the columns settle its `AsOf` and `Range`
        // checks, as they settle the deep chain's checks inside its head.
        let single = g.insert_node(class, vec![Value::Int(2), Value::Str("x".into())], 420).unwrap();
        let by_chain =
            [(u, TimeFilter::AsOf(455)), (u, TimeFilter::Range(420, 600)), (u, TimeFilter::Range(0, last + 50))];
        let by_column = [
            (u, TimeFilter::Current),
            (u, TimeFilter::AsOf(last + 10)),
            (single, TimeFilter::AsOf(500)),
            (single, TimeFilter::Range(420, 600)),
            (single, TimeFilter::Range(0, last + 50)),
        ];
        for (uid, filter) in by_chain {
            let cost = GraphView::new(&g, filter).access_cost(uid);
            assert!(cost.materializations > 0, "{filter:?} reads delta-encoded versions");
        }
        let settled = by_chain.iter().map(|c| (c, false)).chain(by_column.iter().map(|c| (c, true)));
        for (&(uid, filter), settled) in settled {
            let v = GraphView::new(&g, filter);
            let cost = v.access_cost(uid);
            assert_eq!(cost, chain_cost(&g, uid, filter), "{filter:?}: access_cost is the chain path's");
            let before = g.class_heat(class);
            let mut tally = HeatTally::new(&g);
            let by_predicate = v.matching(uid, |_| true, &mut tally);
            tally.flush();
            let mid = g.class_heat(class);
            let by_span = v.asserted(uid, &mut tally);
            tally.flush();
            let after = g.class_heat(class);
            // Same answer, same logical cost, no physical materialization.
            assert_eq!(by_span, by_predicate, "{filter:?}");
            assert!(by_span.is_some());
            assert_eq!(v.access_cost(uid), cost);
            let read = |h: ClassHeatSnapshot, from: ClassHeatSnapshot| {
                (
                    h.materializations - from.materializations,
                    h.keyframe_hits - from.keyframe_hits,
                    h.bytes_read - from.bytes_read,
                )
            };
            assert_eq!(read(mid, before), (cost.materializations, cost.keyframe_hits, cost.bytes), "{filter:?}");
            assert_eq!(
                read(after, mid),
                (0, cost.materializations + cost.keyframe_hits, 0),
                "{filter:?}: every span consulted is a replay-free read"
            );
            let past = filter != TimeFilter::Current;
            assert_eq!(tally.chain_reads, if settled { 0 } else { 2 * past as u64 }, "{filter:?}");
        }
        // Deleted, then probed after its end and across it.
        g.delete(u, last + 100).unwrap();
        for filter in [TimeFilter::Current, TimeFilter::AsOf(last + 200), TimeFilter::Range(last + 100, last + 300)] {
            let v = GraphView::new(&g, filter);
            let mut tally = HeatTally::new(&g);
            assert_eq!(v.asserted(u, &mut tally), None, "{filter:?}");
            assert_eq!(v.matching(u, |_| true, &mut tally), None, "{filter:?}");
        }
        let v = GraphView::new(&g, TimeFilter::Range(last, last + 300));
        let mut tally = HeatTally::new(&g);
        assert_eq!(v.asserted(u, &mut tally), v.matching(u, |_| true, &mut tally));
    }
}
