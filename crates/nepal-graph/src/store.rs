//! The native temporal graph store.
//!
//! A transaction-time graph database (§4, §5.3): every node and edge carries
//! a sequence of *versions*, each with its field values and a half-open
//! system-time interval. The current snapshot is simply the set of versions
//! whose interval is still open — so history queries and snapshot queries
//! run against the same structure, and storing 60 days of history costs a
//! few percent rather than 60 full copies (§6.1).
//!
//! Storage is **class-partitioned**: every class keeps its own extent list,
//! which is what makes anchored scans over `VM()` ignore the millions of
//! irrelevant legacy entities (the paper's Table-3 partitioning win).

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nepal_schema::{ClassId, ClassKind, Schema, Ts, Value};

use crate::error::{GraphError, Result};
use crate::interval::{Interval, IntervalSet, FOREVER};
use crate::view::TimeFilter;

/// Unique identifier of a node or edge. Uids are dense indices assigned by
/// the store; nodes and edges share one uid space (as in the paper's
/// `uid_list` path representation, which mixes both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Uid(pub u64);

/// Every `KEYFRAME_INTERVAL`-th version in a chain is kept as a full
/// keyframe; versions between keyframes store backward deltas. Bounds the
/// work to materialize any historical version while deep chains under
/// churn keep only the fields that actually changed.
pub const KEYFRAME_INTERVAL: usize = 16;

/// Payload of one stored version: either the full field vector, or — for
/// history versions between keyframes — a backward delta holding *this*
/// version's values for exactly the fields that differ from the next
/// (newer) version in the chain.
#[derive(Debug, Clone)]
pub enum VersionData {
    Full(Vec<Value>),
    Delta(Box<[(u32, Value)]>),
}

/// One version of an entity: field values asserted during `span`.
///
/// The newest version of a chain is always stored [`VersionData::Full`]
/// (the hot current-snapshot path never materializes); older versions may
/// be backward deltas — read them through
/// [`materialize_version`] / [`TemporalGraph::fields_at`].
#[derive(Debug, Clone)]
pub struct Version {
    pub(crate) data: VersionData,
    pub span: Interval,
}

impl Version {
    /// A fully-materialized version.
    pub fn full(fields: Vec<Value>, span: Interval) -> Version {
        Version { data: VersionData::Full(fields), span }
    }

    /// The stored payload (full values or backward delta).
    pub fn data(&self) -> &VersionData {
        &self.data
    }

    /// Is this version stored as a backward delta?
    pub fn is_delta(&self) -> bool {
        matches!(self.data, VersionData::Delta(_))
    }

    /// Field values of a fully-stored version. Panics on a delta-encoded
    /// history version — those must be read via
    /// [`materialize_version`] or [`TemporalGraph::fields_at`].
    pub fn fields(&self) -> &[Value] {
        match &self.data {
            VersionData::Full(f) => f,
            VersionData::Delta(_) => {
                panic!("delta-encoded history version read directly; materialize via fields_at()")
            }
        }
    }
}

/// Materialize the field values of `versions[i]`. Full versions are
/// returned borrowed; delta versions are reconstructed by copying the
/// nearest newer full version (keyframes guarantee one within
/// [`KEYFRAME_INTERVAL`]) and applying the backward deltas down to `i`.
pub fn materialize_version(versions: &[Version], i: usize) -> Cow<'_, [Value]> {
    match &versions[i].data {
        VersionData::Full(f) => Cow::Borrowed(f.as_slice()),
        VersionData::Delta(_) => {
            let j = (i + 1..versions.len())
                .find(|&k| matches!(versions[k].data, VersionData::Full(_)))
                .expect("chain head is always a full version");
            let mut fields = match &versions[j].data {
                VersionData::Full(f) => f.clone(),
                VersionData::Delta(_) => unreachable!(),
            };
            for k in (i..j).rev() {
                match &versions[k].data {
                    VersionData::Delta(d) => {
                        for (idx, v) in d.iter() {
                            fields[*idx as usize] = v.clone();
                        }
                    }
                    VersionData::Full(f) => fields.clone_from(f),
                }
            }
            Cow::Owned(fields)
        }
    }
}

/// The backward delta of `older` against `newer`: `older`'s values at
/// exactly the indices where the two differ.
fn field_delta(older: &[Value], newer: &[Value]) -> Vec<(u32, Value)> {
    older
        .iter()
        .zip(newer.iter())
        .enumerate()
        .filter(|(_, (o, n))| o != n)
        .map(|(i, (o, _))| (i as u32, o.clone()))
        .collect()
}

/// Canonical encoding decision for chain position `i` of `chain_len`:
/// the head and every `KEYFRAME_INTERVAL`-th version stay full; everything
/// between is a delta **iff** the delta is narrower than the field count
/// (an all-fields delta costs more than the full vector it replaces).
/// Both the live mutation path and every restore path (journal, binary
/// snapshot) must follow this rule so byte accounting is reproducible.
fn canonical_keep_full(i: usize, chain_len: usize) -> bool {
    i + 1 == chain_len || i.is_multiple_of(KEYFRAME_INTERVAL)
}

/// Encode a closed history version per the canonical width rule: delta
/// against the next-newer version iff strictly narrower than the full
/// field vector (otherwise the full values stay, e.g. field-less edges or
/// every-field rewrites).
fn encode_history(older: Vec<Value>, newer: &[Value]) -> VersionData {
    let delta = field_delta(&older, newer);
    if delta.len() < older.len() {
        VersionData::Delta(delta.into_boxed_slice())
    } else {
        VersionData::Full(older)
    }
}

/// A stored node. Its uid is its index in the entry table and its class
/// is kept in the element column ([`TemporalGraph::class_of`]), not here.
#[derive(Debug, Clone)]
pub struct NodeEntry {
    /// Versions in chronological order; spans never overlap.
    pub versions: Vec<Version>,
}

/// A stored edge. Endpoints are immutable for the lifetime of the uid
/// (a moved connection is a delete + insert, as in real inventory feeds).
/// Its uid is its index in the entry table and its class is kept in the
/// element column ([`TemporalGraph::class_of`]).
#[derive(Debug, Clone)]
pub struct EdgeEntry {
    pub src: Uid,
    pub dst: Uid,
    pub versions: Vec<Version>,
}

#[derive(Debug, Clone)]
enum Entry {
    Node(NodeEntry),
    Edge(EdgeEntry),
}

impl Entry {
    fn versions(&self) -> &[Version] {
        match self {
            Entry::Node(n) => &n.versions,
            Entry::Edge(e) => &e.versions,
        }
    }

    fn versions_mut(&mut self) -> &mut Vec<Version> {
        match self {
            Entry::Node(n) => &mut n.versions,
            Entry::Edge(e) => &mut e.versions,
        }
    }

    /// The word this entry's uid has in the element column.
    fn elem_word(&self, class: ClassId) -> ElemWord {
        let vs = self.versions();
        ElemWord::new(
            class,
            matches!(self, Entry::Node(_)),
            vs.last().is_some_and(|v| v.span.is_current()),
            vs.len() == 1,
        )
    }

    /// The instant this entry's uid has in the `since` column: since when
    /// its open/closed state has held. That is the open head's `from` or
    /// the closed head's `to`; `Ts::MIN` for an empty chain.
    fn since(&self) -> Ts {
        match self.versions().last() {
            Some(v) if v.span.is_current() => v.span.from,
            Some(v) => v.span.to,
            None => Ts::MIN,
        }
    }
}

/// One uid's word in the element column: its exact class, whether it is a
/// node, whether its chain head is open (the element is asserted in the
/// current snapshot) and whether its chain holds exactly one version,
/// packed into 32 bits. A `Current` element check reads this word alone
/// instead of an entry slot plus its chain's heap block; with the uid's
/// `since` instant it settles most `AsOf` and `Range` checks too
/// ([`TemporalGraph::asserted_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElemWord(u32);

impl ElemWord {
    const NODE: u32 = 1 << 31;
    const OPEN: u32 = 1 << 30;
    const SINGLE: u32 = 1 << 29;
    /// Class ids live below the three flag bits.
    const CLASS: u32 = Self::SINGLE - 1;

    fn new(class: ClassId, is_node: bool, open: bool, single: bool) -> ElemWord {
        let flag = |set: bool, bit: u32| if set { bit } else { 0 };
        ElemWord(class.0 | flag(is_node, Self::NODE) | flag(open, Self::OPEN) | flag(single, Self::SINGLE))
    }

    /// The exact class.
    pub fn class(self) -> ClassId {
        ClassId(self.0 & Self::CLASS)
    }

    pub fn is_node(self) -> bool {
        self.0 & Self::NODE != 0
    }

    /// Is the chain head open, i.e. the element asserted now?
    pub fn is_open(self) -> bool {
        self.0 & Self::OPEN != 0
    }

    /// Does the chain hold exactly one version?
    pub fn is_single(self) -> bool {
        self.0 & Self::SINGLE != 0
    }
}

/// What the element column and the `since` column settle about one element
/// check under a past time filter ([`TemporalGraph::liveness_at`],
/// [`TemporalGraph::liveness_over`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Liveness {
    /// Not asserted at the instant, or anywhere in the window.
    Dead,
    /// The open head is the one version that counts: it holds the instant,
    /// or it is the chain's only version and overlaps the window.
    Head,
    /// Only the version chain can tell.
    Chain,
}

/// An adjacency record: the connecting edge, the opposite endpoint, and —
/// denormalized for the evaluator's hot path — the edge's exact class and
/// direction, so `Extend` can match a neighbor without an `edge()` lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjEntry {
    pub edge: Uid,
    pub other: Uid,
    /// Exact class of `edge` (classes are immutable per entity).
    pub class: ClassId,
    /// `true` when this entry sits in an out-adjacency list (edge leaves
    /// the owning node), `false` for in-adjacency.
    pub out: bool,
}

/// One class run inside an [`AdjList`]: entries `[start, start+len)` all
/// have exactly `class`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AdjBucket {
    class: ClassId,
    start: u32,
    len: u32,
}

/// A node's adjacency list, kept grouped by exact edge class so the
/// evaluator can skip whole classes that no NFA transition can match
/// (two array reads instead of a per-neighbor lookup).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdjList {
    entries: Vec<AdjEntry>,
    buckets: Vec<AdjBucket>,
}

/// Shared empty list for uids without an adjacency slot.
static EMPTY_ADJ: AdjList = AdjList { entries: Vec::new(), buckets: Vec::new() };

impl AdjList {
    /// All entries, grouped by exact edge class (insertion order within a
    /// class, classes in first-seen order).
    pub fn entries(&self) -> &[AdjEntry] {
        &self.entries
    }

    /// Iterate `(exact edge class, entries of that class)` runs.
    pub fn buckets(&self) -> impl Iterator<Item = (ClassId, &[AdjEntry])> {
        self.buckets.iter().map(|b| (b.class, &self.entries[b.start as usize..(b.start + b.len) as usize]))
    }

    /// Insert an entry, returning whether a new class bucket was created
    /// (the accounting hook charges bucket overhead on first use).
    fn insert(&mut self, e: AdjEntry) -> bool {
        // Fast path: bulk load inserts edges in class runs, so the hit is
        // almost always the most recent bucket — and the last bucket's run
        // always ends at `entries.len()`, making the insert a pure push
        // with no mid-array shifting and no O(#classes) scan.
        if let Some(b) = self.buckets.last_mut() {
            if b.class == e.class {
                b.len += 1;
                self.entries.push(e);
                return false;
            }
        }
        if let Some(i) = self.buckets.iter().position(|b| b.class == e.class) {
            let at = (self.buckets[i].start + self.buckets[i].len) as usize;
            self.entries.insert(at, e);
            self.buckets[i].len += 1;
            for b in &mut self.buckets[i + 1..] {
                b.start += 1;
            }
            false
        } else {
            self.buckets.push(AdjBucket { class: e.class, start: self.entries.len() as u32, len: 1 });
            self.entries.push(e);
            true
        }
    }

    /// Estimated heap bytes of this list under the accounting model:
    /// entry array + bucket array (the `AdjList` header itself is charged
    /// by the owner).
    fn heap_bytes(&self) -> u64 {
        self.entries.len() as u64 * ADJ_ENTRY_BYTES + self.buckets.len() as u64 * ADJ_BUCKET_BYTES
    }
}

// ----------------------------------------------------------------------
// Resource accounting (estimated heap bytes)
// ----------------------------------------------------------------------

/// Inline size of one [`Value`] slot (vector element / field cell).
pub(crate) const VALUE_SLOT_BYTES: u64 = std::mem::size_of::<Value>() as u64;
/// Inline size of one [`Version`] inside an entity's version vector.
pub(crate) const VERSION_BYTES: u64 = std::mem::size_of::<Version>() as u64;
/// Inline size of one backward-delta slot (`(field index, value)`).
const DELTA_SLOT_BYTES: u64 = std::mem::size_of::<(u32, Value)>() as u64;
/// Per-entity overhead: the `Entry` slot in the entry table, the
/// adjacency-slot index, the element-column word, the extent-list uid and
/// the `since`-column instant.
const ENTRY_OVERHEAD_BYTES: u64 = (std::mem::size_of::<Entry>()
    + std::mem::size_of::<u32>()
    + std::mem::size_of::<ElemWord>()
    + std::mem::size_of::<Uid>()
    + std::mem::size_of::<Ts>()) as u64;
const ADJ_ENTRY_BYTES: u64 = std::mem::size_of::<AdjEntry>() as u64;
const ADJ_BUCKET_BYTES: u64 = std::mem::size_of::<AdjBucket>() as u64;
/// Per-node adjacency base: one out and one in `AdjList` header.
const ADJ_NODE_BYTES: u64 = 2 * std::mem::size_of::<AdjList>() as u64;
/// Flat estimate for a hash-map header (unique-index accounting).
const MAP_HEADER_BYTES: u64 = 48;

/// Estimated heap bytes owned by `v` beyond its inline enum slot.
/// Strings are charged at `len` (capacity is unobservable), containers at
/// one slot per element plus their elements' own heap.
pub fn value_heap_bytes(v: &Value) -> u64 {
    match v {
        Value::Str(s) => s.len() as u64,
        Value::List(vs) | Value::Set(vs) | Value::Composite(vs) => {
            vs.len() as u64 * VALUE_SLOT_BYTES + vs.iter().map(value_heap_bytes).sum::<u64>()
        }
        Value::Map(m) => {
            m.iter().map(|(k, val)| 2 * VALUE_SLOT_BYTES + value_heap_bytes(k) + value_heap_bytes(val)).sum()
        }
        _ => 0,
    }
}

/// Heap owned by one field vector: the slots plus each value's own heap.
fn fields_heap_bytes(fields: &[Value]) -> u64 {
    fields.len() as u64 * VALUE_SLOT_BYTES + fields.iter().map(value_heap_bytes).sum::<u64>()
}

/// Bytes one fully-stored version contributes: its slot in the version
/// vector plus its field payload. Also the *full-equivalent* cost of a
/// delta version (what it would cost uncompressed).
pub(crate) fn version_heap_bytes(fields: &[Value]) -> u64 {
    VERSION_BYTES + fields_heap_bytes(fields)
}

/// Heap owned by one backward delta: its slots plus each value's heap.
fn delta_heap_bytes(delta: &[(u32, Value)]) -> u64 {
    delta.len() as u64 * DELTA_SLOT_BYTES + delta.iter().map(|(_, v)| value_heap_bytes(v)).sum::<u64>()
}

/// Actual stored bytes of one version under the accounting model,
/// whichever representation it uses.
pub(crate) fn stored_version_bytes(v: &Version) -> u64 {
    match &v.data {
        VersionData::Full(f) => version_heap_bytes(f),
        VersionData::Delta(d) => VERSION_BYTES + delta_heap_bytes(d),
    }
}

/// Incrementally maintained per-class accounting (one entry per exact
/// class; future partitions split along the same axis).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassAccounting {
    /// Uids ever created with this exact class.
    pub entities: u64,
    /// Stored versions, current + history.
    pub versions: u64,
    /// Estimated heap bytes: entry slots, version chains (as actually
    /// stored — deltas charged at delta cost), field payloads.
    pub bytes: u64,
    /// Full-equivalent heap bytes: what `bytes` would be if every history
    /// version were stored uncompressed. `1 - bytes/full_bytes` is the
    /// delta-encoding saving.
    pub full_bytes: u64,
}

/// Per-class footprint inside a [`MemoryReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassMemory {
    pub class: ClassId,
    pub name: String,
    pub kind: ClassKind,
    pub entities: u64,
    pub alive: u64,
    pub versions: u64,
    pub bytes: u64,
    /// What `bytes` would be without delta-encoded history.
    pub full_bytes: u64,
}

/// A point-in-time snapshot of the store's estimated memory footprint.
/// Produced incrementally by [`TemporalGraph::memory_report`] and by the
/// brute-force [`TemporalGraph::memory_recount`] walk (the two must agree
/// — see the churn proptest).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// Classes with at least one entity, in class-id order.
    pub classes: Vec<ClassMemory>,
    /// Σ class bytes.
    pub entity_bytes: u64,
    /// Σ class full-equivalent bytes (entity bytes without delta-encoded
    /// history); `delta_savings_pct` derives the saving from this.
    pub entity_full_bytes: u64,
    /// Adjacency lists: headers, entry arrays, class-run buckets.
    pub adjacency_bytes: u64,
    /// Unique indexes: map headers plus key/uid payloads.
    pub unique_index_bytes: u64,
    /// Size in bytes of a full journal save (durability, not heap).
    pub journal_bytes: u64,
    /// entity + adjacency + unique-index bytes.
    pub total_bytes: u64,
    /// Version-chain length distribution as log₂ `(≤ bound, entities)`
    /// pairs over non-empty buckets.
    pub chain_histogram: Vec<(u64, u64)>,
}

impl MemoryReport {
    /// Percentage of version-history heap saved by delta encoding:
    /// `100 * (1 - entity_bytes / entity_full_bytes)`. Zero on an empty
    /// or delta-free store.
    pub fn delta_savings_pct(&self) -> f64 {
        if self.entity_full_bytes == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.entity_bytes as f64 / self.entity_full_bytes as f64)
    }
}

/// Per-kind storage totals (see [`TemporalGraph::counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    pub nodes: u64,
    pub edges: u64,
    /// Stored node versions, current + history.
    pub node_versions: u64,
    /// Stored edge versions, current + history.
    pub edge_versions: u64,
    /// Nodes whose latest version is still asserted.
    pub alive_nodes: u64,
    /// Edges whose latest version is still asserted.
    pub alive_edges: u64,
}

/// Per-class read-path access counters (the store heatmap): how often each
/// class partition is scanned, seeked, and how many version reads were
/// delta materializations vs. keyframe hits. Relaxed atomics so the
/// shared read path (`&self`) can maintain them; counts are *physical* —
/// parallel workers re-deriving a read each count it — which is the right
/// semantics for cumulative monitoring and the omni-index planner input.
#[derive(Debug, Default)]
pub struct ClassHeat {
    /// Extent scans over this exact class.
    pub scans: AtomicU64,
    /// Elements yielded by those extent scans.
    pub scan_rows: AtomicU64,
    /// Unique-index point lookups attributed to this class.
    pub seeks: AtomicU64,
    /// Version reads that had to materialize a delta-encoded version.
    pub materializations: AtomicU64,
    /// Version reads satisfied directly by a full (keyframe) version.
    pub keyframe_hits: AtomicU64,
    /// Field-slot bytes read (record width x slot size per version read).
    pub bytes_read: AtomicU64,
}

impl ClassHeat {
    #[inline]
    fn version_read(&self, is_delta: bool, width: usize) {
        if is_delta {
            self.materializations.fetch_add(1, Ordering::Relaxed);
        } else {
            self.keyframe_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.bytes_read.fetch_add(width as u64 * VALUE_SLOT_BYTES, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> ClassHeatSnapshot {
        ClassHeatSnapshot {
            scans: self.scans.load(Ordering::Relaxed),
            scan_rows: self.scan_rows.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
            materializations: self.materializations.load(Ordering::Relaxed),
            keyframe_hits: self.keyframe_hits.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }
}

/// Version reads tallied away from the shared [`ClassHeat`] cache lines: the
/// evaluator keeps one per pool seat (and the anchor scan one per scan),
/// counts every element it matches with plain adds, and flushes the tally
/// once per stage — at the latest when it is dropped. The heatmap's totals
/// are the same as if each read had been counted where it happened.
pub struct HeatTally<'g> {
    graph: &'g TemporalGraph,
    /// `[materializations, keyframe_hits, bytes_read]` per exact class,
    /// grown to the highest class seen.
    cells: Vec<[u64; 3]>,
    /// Element checks under `AsOf` or `Range` that the `since` column could
    /// not settle, so they searched the version chain. Physical, like the
    /// heatmap, and never zeroed by [`HeatTally::flush`].
    pub chain_reads: u64,
}

impl<'g> HeatTally<'g> {
    pub fn new(graph: &'g TemporalGraph) -> Self {
        HeatTally { graph, cells: Vec::new(), chain_reads: 0 }
    }

    /// One version read on an entity of `class`; `width` is the record's
    /// field count, `0` for a read that consulted the version's span only.
    #[inline]
    pub(crate) fn version_read(&mut self, class: ClassId, is_delta: bool, width: usize) {
        let c = class.0 as usize;
        if c >= self.cells.len() {
            self.cells.resize(c + 1, [0; 3]);
        }
        let cell = &mut self.cells[c];
        cell[if is_delta { 0 } else { 1 }] += 1;
        cell[2] += width as u64 * VALUE_SLOT_BYTES;
    }

    /// Add the tallied reads to the store's per-class heatmap and zero them.
    pub fn flush(&mut self) {
        for (h, cell) in self.graph.heat.iter().zip(self.cells.iter_mut()) {
            let [materializations, keyframe_hits, bytes_read] = std::mem::take(cell);
            if materializations + keyframe_hits > 0 {
                h.materializations.fetch_add(materializations, Ordering::Relaxed);
                h.keyframe_hits.fetch_add(keyframe_hits, Ordering::Relaxed);
                h.bytes_read.fetch_add(bytes_read, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for HeatTally<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Plain-value copy of one class's [`ClassHeat`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassHeatSnapshot {
    pub scans: u64,
    pub scan_rows: u64,
    pub seeks: u64,
    pub materializations: u64,
    pub keyframe_hits: u64,
    pub bytes_read: u64,
}

impl ClassHeatSnapshot {
    /// Any read-path activity at all on this class?
    pub fn is_hot(&self) -> bool {
        self.scans > 0 || self.seeks > 0 || self.materializations > 0 || self.keyframe_hits > 0
    }
}

/// The class that declares layout index `idx` for `class` (the ancestor
/// whose own-field range contains `idx`). Unique indexes are keyed on the
/// declaring class so all subclasses share the constraint.
fn declaring_class(schema: &Schema, class: ClassId, idx: usize) -> ClassId {
    let mut offset = 0usize;
    for c in schema.ancestors(class).into_iter().rev() {
        let own = schema.class(c).own_fields.len();
        if idx < offset + own {
            return c;
        }
        offset += own;
    }
    class
}

/// The value field `idx` takes in each version of `versions`, newest
/// first, without materializing any: a `Full` version stores it, a `Delta`
/// stores it where the field changed and otherwise carries the next-newer
/// version's value. The chain's newest version must be stored full.
fn field_history(versions: &[Version], idx: usize) -> impl Iterator<Item = &Value> {
    versions.iter().rev().scan(None, move |carried: &mut Option<&Value>, v| {
        *carried = match &v.data {
            VersionData::Full(f) => Some(&f[idx]),
            VersionData::Delta(d) => d.iter().find(|(i, _)| *i as usize == idx).map(|(_, x)| x).or(*carried),
        };
        *carried
    })
}

/// Record `uid` as a former holder of the non-null `v` under `key`.
fn add_former(former: &mut FormerIndex, key: (ClassId, usize), v: &Value, uid: Uid) {
    if v.is_null() {
        return;
    }
    let m = former.entry(key).or_default();
    match m.get_mut(v) {
        Some(holders) => {
            if let Err(at) = holders.binary_search(&uid) {
                holders.insert(at, uid);
            }
        }
        None => {
            m.insert(v.clone(), vec![uid]);
        }
    }
}

/// Drop `uid` from the former holders of `v` under `key` (its open head
/// holds `v` again), pruning emptied entries so the live index stays equal
/// to a rebuilt one.
fn remove_former(former: &mut FormerIndex, key: (ClassId, usize), v: &Value, uid: Uid) {
    let Some(m) = former.get_mut(&key) else { return };
    let Some(holders) = m.get_mut(v) else { return };
    if let Ok(at) = holders.binary_search(&uid) {
        holders.remove(at);
        if holders.is_empty() {
            m.remove(v);
            if m.is_empty() {
                former.remove(&key);
            }
        }
    }
}

/// Drop `v`'s current holder under `key`, pruning an emptied map.
fn remove_holder(unique: &mut UniqueIndex, key: (ClassId, usize), v: &Value) {
    if let Some(m) = unique.get_mut(&key) {
        m.remove(v);
        if m.is_empty() {
            unique.remove(&key);
        }
    }
}

/// One entry of [`TemporalGraph::unique_index_rows`]: declaring class,
/// field index, value, current holder, former holders.
pub type UniqueIndexRow = (ClassId, usize, Value, Option<Uid>, Vec<Uid>);

/// (declaring class, field index) → value → current holder.
type UniqueIndex = HashMap<(ClassId, usize), HashMap<Value, Uid>>;
/// (declaring class, field index) → value → former holders.
type FormerIndex = HashMap<(ClassId, usize), HashMap<Value, Vec<Uid>>>;

/// Starting capacity of the per-uid tables (entries, element and `since`
/// columns, adjacency). A first buffer this large comes from the building
/// thread's own allocator arena. A small one may instead be a chunk that glibc's
/// per-thread cache recycled from another arena (evaluator pool helpers
/// allocate pathway buffers that the calling thread frees), and the table
/// would then grow by `realloc` inside that other arena for its whole
/// life, beside the memory that arena already holds.
const UID_TABLE_CAPACITY: usize = 1024;

/// The temporal graph store.
pub struct TemporalGraph {
    schema: Arc<Schema>,
    entries: Vec<Entry>,
    /// The element column: uid → [`ElemWord`] (class, kind, open head,
    /// one-version chain). The only place a uid's class is stored; written
    /// by [`TemporalGraph::write_elem`] alone.
    elems: Vec<ElemWord>,
    /// The `since` column: uid → the instant since which its open/closed
    /// state has held (see [`Entry::since`]). Written beside `elems` by
    /// [`TemporalGraph::write_elem`] alone.
    since: Vec<Ts>,
    /// uid → adjacency slot (nodes only; `u32::MAX` for edges).
    adj_slot: Vec<u32>,
    out_adj: Vec<AdjList>,
    in_adj: Vec<AdjList>,
    /// Per exact class: every uid ever created with that class.
    extents: Vec<Vec<Uid>>,
    /// Per exact class: number of currently asserted entities (statistics
    /// for the anchor-costing optimizer, §5.1).
    alive: Vec<u64>,
    /// Unique index: (declaring class, field index) → value → the uid
    /// whose open head holds it.
    unique: UniqueIndex,
    /// Former-holder index beside `unique`: (declaring class, field index)
    /// → value → every uid (sorted, distinct) that holds the value in some
    /// stored version, except the uid whose open head holds it now. A pure
    /// function of the version chains that only deletes and re-keys feed,
    /// so a store whose unique values never move or die keeps it empty.
    former: FormerIndex,
    /// Per exact class: its unique fields as `(field index, declaring
    /// class)`, resolved once so mutations never walk the hierarchy.
    unique_keys: Vec<Box<[(usize, ClassId)]>>,
    /// Total number of versions ever stored (history accounting, §6.1).
    version_count: u64,
    /// Per exact class: incremental entity/version/byte accounting.
    acct: Vec<ClassAccounting>,
    /// Incremental adjacency-structure bytes (lists, entries, buckets).
    adj_bytes: u64,
    /// Per exact class: read-path access heatmap (scans, seeks,
    /// materializations, bytes read) — input for the adaptive planner.
    heat: Vec<ClassHeat>,
}

impl TemporalGraph {
    pub fn new(schema: Arc<Schema>) -> TemporalGraph {
        let n = schema.num_classes();
        assert!(n <= ElemWord::CLASS as usize, "{n} classes do not fit the element column's 29 class bits");
        let unique_keys = (0..n as u32)
            .map(|c| {
                let class = ClassId(c);
                schema.unique_fields(class).into_iter().map(|idx| (idx, declaring_class(&schema, class, idx))).collect()
            })
            .collect();
        TemporalGraph {
            schema,
            entries: Vec::with_capacity(UID_TABLE_CAPACITY),
            elems: Vec::with_capacity(UID_TABLE_CAPACITY),
            since: Vec::with_capacity(UID_TABLE_CAPACITY),
            adj_slot: Vec::with_capacity(UID_TABLE_CAPACITY),
            out_adj: Vec::with_capacity(UID_TABLE_CAPACITY),
            in_adj: Vec::with_capacity(UID_TABLE_CAPACITY),
            extents: vec![Vec::new(); n],
            alive: vec![0; n],
            unique: HashMap::new(),
            former: HashMap::new(),
            unique_keys,
            version_count: 0,
            acct: vec![ClassAccounting::default(); n],
            adj_bytes: 0,
            heat: std::iter::repeat_with(ClassHeat::default).take(n).collect(),
        }
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Total number of uids (nodes + edges) ever created.
    pub fn num_entities(&self) -> usize {
        self.entries.len()
    }

    /// Total number of stored versions (current + history).
    pub fn num_versions(&self) -> u64 {
        self.version_count
    }

    /// Per-kind storage totals, for metric export. O(classes), derived
    /// from the incrementally maintained per-class accounting — cheap
    /// enough to refresh per query, not just per scrape.
    pub fn counts(&self) -> StoreCounts {
        let mut c = StoreCounts::default();
        for (i, acct) in self.acct.iter().enumerate() {
            let class = ClassId(i as u32);
            match self.schema.kind(class) {
                ClassKind::Node => {
                    c.nodes += acct.entities;
                    c.node_versions += acct.versions;
                    c.alive_nodes += self.alive[i];
                }
                ClassKind::Edge => {
                    c.edges += acct.entities;
                    c.edge_versions += acct.versions;
                    c.alive_edges += self.alive[i];
                }
            }
        }
        c
    }

    // ------------------------------------------------------------------
    // Mutation API
    // ------------------------------------------------------------------

    fn unique_violation(&self, class: ClassId, idx: usize) -> GraphError {
        GraphError::UniqueViolation {
            class: self.schema.class(class).name.clone(),
            field: self.schema.all_fields(class)[idx].name.clone(),
        }
    }

    fn check_unique_free(&self, class: ClassId, fields: &[Value]) -> Result<()> {
        for &(idx, decl) in self.unique_keys[class.0 as usize].iter() {
            let v = &fields[idx];
            if !v.is_null() && self.unique.get(&(decl, idx)).is_some_and(|m| m.contains_key(v)) {
                return Err(self.unique_violation(class, idx));
            }
        }
        Ok(())
    }

    fn index_unique(&mut self, class: ClassId, fields: &[Value], uid: Uid) {
        for &(idx, decl) in self.unique_keys[class.0 as usize].iter() {
            let v = &fields[idx];
            if !v.is_null() {
                self.unique.entry((decl, idx)).or_default().insert(v.clone(), uid);
            }
        }
    }

    /// The one writer of the element and `since` columns: sets `uid`'s
    /// word from `class`, its entry's kind and its chain, and its `since`
    /// instant from its chain head. Called wherever a uid is created
    /// (inserts, both restores) or its chain changes (updates, closes).
    fn write_elem(&mut self, uid: Uid, class: ClassId) {
        let i = uid.0 as usize;
        let entry = &self.entries[i];
        let (word, since) = (entry.elem_word(class), entry.since());
        match self.elems.get_mut(i) {
            Some(w) => {
                *w = word;
                self.since[i] = since;
            }
            None => {
                debug_assert_eq!(i, self.elems.len(), "uids are dense");
                self.elems.push(word);
                self.since.push(since);
            }
        }
    }

    /// Insert a node of `class` asserted from `ts`.
    pub fn insert_node(&mut self, class: ClassId, fields: Vec<Value>, ts: Ts) -> Result<Uid> {
        if self.schema.kind(class) != ClassKind::Node {
            return Err(GraphError::BadClass(self.schema.class(class).name.clone()));
        }
        self.schema.validate_record(class, &fields)?;
        self.check_unique_free(class, &fields)?;
        let uid = Uid(self.entries.len() as u64);
        self.index_unique(class, &fields, uid);
        let heap = ENTRY_OVERHEAD_BYTES + version_heap_bytes(&fields);
        self.entries.push(Entry::Node(NodeEntry { versions: vec![Version::full(fields, Interval::since(ts))] }));
        self.write_elem(uid, class);
        let slot = self.out_adj.len() as u32;
        self.adj_slot.push(slot);
        self.out_adj.push(AdjList::default());
        self.in_adj.push(AdjList::default());
        self.extents[class.0 as usize].push(uid);
        self.alive[class.0 as usize] += 1;
        self.version_count += 1;
        let acct = &mut self.acct[class.0 as usize];
        acct.entities += 1;
        acct.versions += 1;
        acct.bytes += heap;
        acct.full_bytes += heap;
        self.adj_bytes += ADJ_NODE_BYTES;
        nepal_obs::flight::emit(nepal_obs::FlightKind::JournalMutation, uid.0, class.0 as u64, 0, "insert_node");
        Ok(uid)
    }

    /// Insert an edge of `class` from `src` to `dst`, asserted from `ts`.
    /// Both endpoints must be currently asserted and the schema's
    /// allowed-edge rules must permit the connection.
    pub fn insert_edge(&mut self, class: ClassId, src: Uid, dst: Uid, fields: Vec<Value>, ts: Ts) -> Result<Uid> {
        if self.schema.kind(class) != ClassKind::Edge {
            return Err(GraphError::BadClass(self.schema.class(class).name.clone()));
        }
        self.schema.validate_record(class, &fields)?;
        self.node(src)?;
        self.node(dst)?;
        let (src_elem, dst_elem) = (self.elems[src.0 as usize], self.elems[dst.0 as usize]);
        if !src_elem.is_open() {
            return Err(GraphError::Dead { uid: src, at: ts });
        }
        if !dst_elem.is_open() {
            return Err(GraphError::Dead { uid: dst, at: ts });
        }
        self.check_edge_allowed(class, src_elem.class(), dst_elem.class())?;
        self.check_unique_free(class, &fields)?;
        let uid = Uid(self.entries.len() as u64);
        self.index_unique(class, &fields, uid);
        let heap = ENTRY_OVERHEAD_BYTES + version_heap_bytes(&fields);
        self.entries.push(Entry::Edge(EdgeEntry {
            src,
            dst,
            versions: vec![Version::full(fields, Interval::since(ts))],
        }));
        self.write_elem(uid, class);
        self.adj_slot.push(u32::MAX);
        let (ss, ds) = (self.adj_slot[src.0 as usize] as usize, self.adj_slot[dst.0 as usize] as usize);
        let new_out = self.out_adj[ss].insert(AdjEntry { edge: uid, other: dst, class, out: true });
        let new_in = self.in_adj[ds].insert(AdjEntry { edge: uid, other: src, class, out: false });
        self.extents[class.0 as usize].push(uid);
        self.alive[class.0 as usize] += 1;
        self.version_count += 1;
        let acct = &mut self.acct[class.0 as usize];
        acct.entities += 1;
        acct.versions += 1;
        acct.bytes += heap;
        acct.full_bytes += heap;
        self.adj_bytes += 2 * ADJ_ENTRY_BYTES + (new_out as u64 + new_in as u64) * ADJ_BUCKET_BYTES;
        nepal_obs::flight::emit(nepal_obs::FlightKind::JournalMutation, uid.0, class.0 as u64, 0, "insert_edge");
        Ok(uid)
    }

    /// Update fields of a currently asserted entity: closes the current
    /// version at `ts` and opens a new one.
    pub fn update(&mut self, uid: Uid, changes: &[(usize, Value)], ts: Ts) -> Result<()> {
        let entry = self.entries.get(uid.0 as usize).ok_or(GraphError::UnknownUid(uid))?;
        let class = self.elems[uid.0 as usize].class();
        let cur = entry.versions().last().filter(|v| v.span.is_current()).ok_or(GraphError::Dead { uid, at: ts })?;
        if ts < cur.span.from {
            return Err(GraphError::NonMonotonicTs { uid, last: cur.span.from, got: ts });
        }
        let mut new_fields = cur.fields().to_vec();
        for (idx, v) in changes {
            if *idx >= new_fields.len() {
                return Err(GraphError::Schema(nepal_schema::SchemaError::UnknownField {
                    class: self.schema.class(class).name.clone(),
                    field: format!("#{idx}"),
                }));
            }
            new_fields[*idx] = v.clone();
        }
        self.schema.validate_record(class, &new_fields)?;
        // Re-key the unique indexes for changed unique fields, checking
        // every one before touching any.
        let same_instant = cur.span.from == ts;
        let versions = entry.versions();
        let old_fields = cur.fields();
        let keys = &self.unique_keys[class.0 as usize];
        for &(idx, decl) in keys.iter() {
            let new = &new_fields[idx];
            if old_fields[idx] != *new
                && !new.is_null()
                && self.unique.get(&(decl, idx)).and_then(|m| m.get(new)).is_some_and(|&h| h != uid)
            {
                return Err(self.unique_violation(class, idx));
            }
        }
        for &(idx, decl) in keys.iter() {
            let (old, new) = (&old_fields[idx], &new_fields[idx]);
            if old == new {
                continue;
            }
            let key = (decl, idx);
            if !old.is_null() {
                remove_holder(&mut self.unique, key, old);
                // A closed head keeps `old` in history; a same-instant
                // rewrite leaves it there only if an older version holds it.
                if !same_instant || field_history(versions, idx).skip(1).any(|x| x == old) {
                    add_former(&mut self.former, key, old, uid);
                }
            }
            if !new.is_null() {
                remove_former(&mut self.former, key, new, uid);
                self.unique.entry(key).or_default().insert(new.clone(), uid);
            }
        }
        let new_heap = fields_heap_bytes(&new_fields);
        let entry = &mut self.entries[uid.0 as usize];
        let versions = entry.versions_mut();
        let acct = &mut self.acct[class.0 as usize];
        if same_instant {
            // Same-instant update: replace in place (no zero-length version).
            let old_heap = fields_heap_bytes(versions.last().expect("the open head exists").fields());
            acct.bytes = acct.bytes + new_heap - old_heap;
            acct.full_bytes = acct.full_bytes + new_heap - old_heap;
            // The head's values change, so the backward delta of the
            // previous version (encoded against the head) must be
            // recomputed or its materialization would silently pick up
            // the rewritten values.
            if versions.len() >= 2 {
                let prev_idx = versions.len() - 2;
                if !canonical_keep_full(prev_idx, versions.len()) {
                    let prev_values = materialize_version(versions, prev_idx).into_owned();
                    let old_stored = stored_version_bytes(&versions[prev_idx]);
                    versions[prev_idx].data = encode_history(prev_values, &new_fields);
                    acct.bytes = acct.bytes + stored_version_bytes(&versions[prev_idx]) - old_stored;
                }
            }
            let last = versions.last_mut().unwrap();
            last.data = VersionData::Full(new_fields);
        } else {
            // Close the head and demote it to a backward delta against the
            // incoming version (its values move out of the head — no
            // materialization or copy), unless it sits on a keyframe slot.
            let head_idx = versions.len() - 1;
            let last = versions.last_mut().unwrap();
            last.span = Interval::new(last.span.from, ts);
            if !head_idx.is_multiple_of(KEYFRAME_INTERVAL) {
                let old_stored = stored_version_bytes(last);
                let VersionData::Full(old_fields) =
                    std::mem::replace(&mut last.data, VersionData::Delta(Box::default()))
                else {
                    unreachable!("the chain head is always stored full")
                };
                last.data = encode_history(old_fields, &new_fields);
                acct.bytes = acct.bytes + stored_version_bytes(last) - old_stored;
            }
            versions.push(Version::full(new_fields, Interval::since(ts)));
            self.version_count += 1;
            acct.versions += 1;
            acct.bytes += VERSION_BYTES + new_heap;
            acct.full_bytes += VERSION_BYTES + new_heap;
        }
        self.write_elem(uid, class);
        nepal_obs::flight::emit(nepal_obs::FlightKind::JournalMutation, uid.0, class.0 as u64, 0, "update");
        Ok(())
    }

    /// Delete (close the assertion of) an entity at `ts`. Deleting a node
    /// cascades to all its currently asserted incident edges, mirroring the
    /// referential behaviour of inventory feeds.
    pub fn delete(&mut self, uid: Uid, ts: Ts) -> Result<()> {
        let entry = self.entries.get(uid.0 as usize).ok_or(GraphError::UnknownUid(uid))?;
        let is_node = matches!(entry, Entry::Node(_));
        if is_node {
            let slot = self.adj_slot[uid.0 as usize] as usize;
            let incident: Vec<Uid> =
                self.out_adj[slot].entries.iter().chain(self.in_adj[slot].entries.iter()).map(|a| a.edge).collect();
            for e in incident {
                if self.elems[e.0 as usize].is_open() {
                    self.close_entry(e, ts)?;
                }
            }
        }
        self.close_entry(uid, ts)
    }

    fn close_entry(&mut self, uid: Uid, ts: Ts) -> Result<()> {
        let class = self.elems[uid.0 as usize].class();
        let versions = self.entries[uid.0 as usize].versions_mut();
        let cur = versions.last().filter(|v| v.span.is_current()).ok_or(GraphError::Dead { uid, at: ts })?;
        if ts < cur.span.from {
            return Err(GraphError::NonMonotonicTs { uid, last: cur.span.from, got: ts });
        }
        let last = versions.last_mut().unwrap();
        let dropped = if last.span.from == ts {
            // Inserted and deleted at the same instant: drop the version.
            let dropped = versions.pop().expect("current version exists");
            self.version_count -= 1;
            let acct = &mut self.acct[class.0 as usize];
            acct.versions -= 1;
            acct.bytes -= stored_version_bytes(&dropped);
            acct.full_bytes -= version_heap_bytes(dropped.fields());
            // The popped head was the delta base of the version below it;
            // that version is the new chain head and must go back to full
            // storage (the head-is-full invariant every reader relies on).
            if let Some(new_last) = versions.last_mut() {
                if let VersionData::Delta(d) = &new_last.data {
                    let mut values = dropped.fields().to_vec();
                    for (idx, v) in d.iter() {
                        values[*idx as usize] = v.clone();
                    }
                    let old_stored = stored_version_bytes(new_last);
                    new_last.data = VersionData::Full(values);
                    acct.bytes = acct.bytes + stored_version_bytes(new_last) - old_stored;
                }
            }
            Some(dropped)
        } else {
            last.span = Interval::new(last.span.from, ts);
            None
        };
        // The entity is dead: its head values leave the unique index, and
        // become former values wherever a stored version still holds them
        // (always, unless the head was just popped).
        let head = dropped.as_ref().or(versions.last()).expect("the closed or popped head exists").fields();
        for &(idx, decl) in self.unique_keys[class.0 as usize].iter() {
            let v = &head[idx];
            if v.is_null() {
                continue;
            }
            remove_holder(&mut self.unique, (decl, idx), v);
            if dropped.is_none() || field_history(versions, idx).any(|x| x == v) {
                add_former(&mut self.former, (decl, idx), v, uid);
            }
        }
        self.alive[class.0 as usize] = self.alive[class.0 as usize].saturating_sub(1);
        self.write_elem(uid, class);
        nepal_obs::flight::emit(nepal_obs::FlightKind::JournalMutation, uid.0, class.0 as u64, 0, "delete");
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lookup API
    // ------------------------------------------------------------------

    /// `uid`'s word in the element column: class, kind and whether it is
    /// asserted now, from one 4-byte read. `None` for an unknown uid.
    #[inline]
    pub fn elem(&self, uid: Uid) -> Option<ElemWord> {
        self.elems.get(uid.0 as usize).copied()
    }

    pub fn is_node(&self, uid: Uid) -> bool {
        self.elem(uid).is_some_and(ElemWord::is_node)
    }

    pub fn node(&self, uid: Uid) -> Result<&NodeEntry> {
        match self.entries.get(uid.0 as usize) {
            Some(Entry::Node(n)) => Ok(n),
            Some(Entry::Edge(_)) => Err(GraphError::WrongKind { uid, expected: "node" }),
            None => Err(GraphError::UnknownUid(uid)),
        }
    }

    pub fn edge(&self, uid: Uid) -> Result<&EdgeEntry> {
        match self.entries.get(uid.0 as usize) {
            Some(Entry::Edge(e)) => Ok(e),
            Some(Entry::Node(_)) => Err(GraphError::WrongKind { uid, expected: "edge" }),
            None => Err(GraphError::UnknownUid(uid)),
        }
    }

    #[inline]
    pub fn class_of(&self, uid: Uid) -> Option<ClassId> {
        self.elem(uid).map(ElemWord::class)
    }

    pub fn versions(&self, uid: Uid) -> &[Version] {
        self.entries.get(uid.0 as usize).map(|e| e.versions()).unwrap_or(&[])
    }

    /// The still-open version, if the entity is currently asserted.
    pub fn current_version(&self, uid: Uid) -> Option<&Version> {
        self.versions(uid).last().filter(|v| v.span.is_current())
    }

    /// The version asserted at time `ts`, if any. The returned version may
    /// be delta-encoded; read values via [`TemporalGraph::fields_at`].
    pub fn version_at(&self, uid: Uid, ts: Ts) -> Option<&Version> {
        self.version_index_at(uid, ts).map(|i| &self.versions(uid)[i])
    }

    /// Index into [`TemporalGraph::versions`] of the version asserted at
    /// `ts`, if any: the head's when the columns say it holds `ts`, else a
    /// binary search of the chain.
    pub fn version_index_at(&self, uid: Uid, ts: Ts) -> Option<usize> {
        let elem = self.elem(uid)?;
        match self.liveness_at(uid, elem, ts) {
            Liveness::Dead => None,
            Liveness::Head => Some(self.versions(uid).len() - 1),
            Liveness::Chain => self.chain_index_at(uid, ts),
        }
    }

    /// [`TemporalGraph::version_index_at`] by binary search of the version
    /// spans alone.
    pub fn chain_index_at(&self, uid: Uid, ts: Ts) -> Option<usize> {
        let vs = self.versions(uid);
        // Versions are sorted by span.from; binary search.
        let idx = vs.partition_point(|v| v.span.from <= ts);
        if idx == 0 {
            return None;
        }
        vs[idx - 1].span.contains(ts).then(|| idx - 1)
    }

    /// `uid`'s instant in the `since` column: its open head's `from`, its
    /// closed head's `to`, `Ts::MIN` for an empty chain. `None` for an
    /// unknown uid.
    #[inline]
    pub fn since(&self, uid: Uid) -> Option<Ts> {
        self.since.get(uid.0 as usize).copied()
    }

    /// The liveness rule at one instant, from `uid`'s word `elem` and its
    /// `since` instant: at or after `since` the open bit answers; before
    /// the `from` of a one-version open chain nothing was asserted; any
    /// other check needs the chain.
    #[inline]
    pub(crate) fn liveness_at(&self, uid: Uid, elem: ElemWord, t: Ts) -> Liveness {
        let since = self.since[uid.0 as usize];
        if t >= since {
            // The open head's span is `[since, FOREVER)`.
            if elem.is_open() && t < FOREVER {
                Liveness::Head
            } else {
                Liveness::Dead
            }
        } else if elem.is_open() && elem.is_single() {
            Liveness::Dead
        } else {
            Liveness::Chain
        }
    }

    /// The liveness rule over the closed window `[a, b]`: a closed chain
    /// ended by `a` has no version in it, and a one-version open chain
    /// overlaps it exactly when its `since` is at most `b`; any other check
    /// needs the chain.
    #[inline]
    pub(crate) fn liveness_over(&self, uid: Uid, elem: ElemWord, a: Ts, b: Ts) -> Liveness {
        let since = self.since[uid.0 as usize];
        if !elem.is_open() {
            if a >= since {
                Liveness::Dead
            } else {
                Liveness::Chain
            }
        } else if elem.is_single() {
            if since <= b && a < FOREVER {
                Liveness::Head
            } else {
                Liveness::Dead
            }
        } else {
            Liveness::Chain
        }
    }

    /// Is `uid` (whose word is `elem`) asserted at `t`? The liveness rule:
    /// at or after `uid`'s `since` instant the open bit answers; before the
    /// `from` of a one-version open chain nothing was asserted; any other
    /// check binary-searches the chain.
    #[inline]
    pub fn asserted_at(&self, uid: Uid, elem: ElemWord, t: Ts) -> bool {
        match self.liveness_at(uid, elem, t) {
            Liveness::Dead => false,
            Liveness::Head => true,
            Liveness::Chain => self.chain_index_at(uid, t).is_some(),
        }
    }

    /// Field values of the still-open version. Borrowed — the chain head
    /// is always stored full, so the hot current-snapshot path never
    /// materializes.
    pub fn current_fields(&self, uid: Uid) -> Option<&[Value]> {
        self.current_version(uid).map(|v| v.fields())
    }

    /// Materialized field values of the version asserted at `ts`:
    /// borrowed for full-stored versions, reconstructed (owned) for
    /// delta-encoded history versions.
    pub fn fields_at(&self, uid: Uid, ts: Ts) -> Option<Cow<'_, [Value]>> {
        let i = self.version_index_at(uid, ts)?;
        let vs = self.versions(uid);
        self.note_version_read(uid, vs[i].is_delta(), vs.last().map_or(0, |h| h.fields().len()));
        Some(materialize_version(vs, i))
    }

    /// Materialized field values of `versions(uid)[index]`.
    pub fn fields_of(&self, uid: Uid, index: usize) -> Cow<'_, [Value]> {
        let vs = self.versions(uid);
        self.note_version_read(uid, vs[index].is_delta(), vs.last().map_or(0, |h| h.fields().len()));
        materialize_version(vs, index)
    }

    /// Index range into [`TemporalGraph::versions`] of the versions whose
    /// span overlaps `iv`.
    pub fn overlap_range(&self, uid: Uid, iv: &Interval) -> std::ops::Range<usize> {
        let vs = self.versions(uid);
        let lo = vs.partition_point(|v| v.span.to <= iv.from);
        let hi = vs.partition_point(|v| v.span.from < iv.to);
        lo..hi
    }

    /// All versions whose span overlaps `iv`. Versions may be
    /// delta-encoded; use [`TemporalGraph::overlap_range`] +
    /// [`TemporalGraph::fields_of`] to read their values.
    pub fn versions_overlapping(&self, uid: Uid, iv: &Interval) -> &[Version] {
        &self.versions(uid)[self.overlap_range(uid, iv)]
    }

    /// The entity's full assertion set (union of version spans).
    pub fn alive_set(&self, uid: Uid) -> IntervalSet {
        let mut s = IntervalSet::empty();
        for v in self.versions(uid) {
            s.push(v.span);
        }
        s
    }

    /// Every uid ever created with *exactly* class `class`. Counts one
    /// scan (plus its yielded rows) on the class heatmap.
    pub fn extent_exact(&self, class: ClassId) -> &[Uid] {
        let ext = &self.extents[class.0 as usize];
        if let Some(h) = self.heat.get(class.0 as usize) {
            h.scans.fetch_add(1, Ordering::Relaxed);
            h.scan_rows.fetch_add(ext.len() as u64, Ordering::Relaxed);
        }
        ext
    }

    /// Iterate all uids of `class` and its subclasses.
    pub fn extent(&self, class: ClassId) -> impl Iterator<Item = Uid> + '_ {
        self.schema.descendants(class).into_iter().flat_map(|c| self.extent_exact(c).to_vec())
    }

    /// Number of currently asserted entities of `class` incl. subclasses —
    /// the optimizer's primary statistic.
    pub fn alive_count(&self, class: ClassId) -> u64 {
        self.schema.descendants(class).into_iter().map(|c| self.alive[c.0 as usize]).sum()
    }

    pub fn out_adj(&self, uid: Uid) -> &[AdjEntry] {
        self.out_adj_list(uid).entries()
    }

    pub fn in_adj(&self, uid: Uid) -> &[AdjEntry] {
        self.in_adj_list(uid).entries()
    }

    /// Out-adjacency of `uid` grouped by exact edge class.
    pub fn out_adj_list(&self, uid: Uid) -> &AdjList {
        match self.adj_slot.get(uid.0 as usize) {
            Some(&s) if s != u32::MAX => &self.out_adj[s as usize],
            _ => &EMPTY_ADJ,
        }
    }

    /// In-adjacency of `uid` grouped by exact edge class.
    pub fn in_adj_list(&self, uid: Uid) -> &AdjList {
        match self.adj_slot.get(uid.0 as usize) {
            Some(&s) if s != u32::MAX => &self.in_adj[s as usize],
            _ => &EMPTY_ADJ,
        }
    }

    /// Read-path heatmap hook: one version read on `uid`'s class. Width is
    /// the record's field count (the chain head is always full).
    #[inline]
    pub(crate) fn note_version_read(&self, uid: Uid, is_delta: bool, width: usize) {
        if let Some(h) = self.class_of(uid).and_then(|c| self.heat.get(c.0 as usize)) {
            h.version_read(is_delta, width);
        }
    }

    /// One class's heatmap counters.
    pub fn class_heat(&self, class: ClassId) -> ClassHeatSnapshot {
        self.heat.get(class.0 as usize).map(|h| h.snapshot()).unwrap_or_default()
    }

    /// Unique-index seek: the entities of `class` (or a subclass) that may
    /// hold `value` in unique field `idx` under `filter`. At `Current` that
    /// is the current holder; under `AsOf` and `Range` the current holder
    /// plus every former holder — a candidate superset the caller re-checks
    /// at its filter. Candidates come in extent-walk order (the class order
    /// of [`Schema::descendants`], then uid). Counts one seek on the queried
    /// class's heatmap.
    pub fn unique_holders(&self, class: ClassId, idx: usize, value: &Value, filter: TimeFilter) -> Vec<Uid> {
        if let Some(h) = self.heat.get(class.0 as usize) {
            h.seeks.fetch_add(1, Ordering::Relaxed);
        }
        let Some(&(_, decl)) = self.unique_keys.get(class.0 as usize).and_then(|ks| ks.iter().find(|k| k.0 == idx))
        else {
            return Vec::new();
        };
        let key = (decl, idx);
        let mut out: Vec<Uid> = self.unique.get(&key).and_then(|m| m.get(value)).copied().into_iter().collect();
        if filter != TimeFilter::Current {
            if let Some(former) = self.former.get(&key).and_then(|m| m.get(value)) {
                out.extend_from_slice(former);
            }
        }
        // The index is keyed on the declaring class, so a holder may be of
        // a sibling subclass outside the queried concept.
        out.retain(|&u| self.class_of(u).is_some_and(|c| self.schema.is_subclass(c, class)));
        if out.len() > 1 {
            let order = self.schema.descendants(class);
            out.sort_unstable_by_key(|&u| (order.iter().position(|&c| Some(c) == self.class_of(u)), u));
        }
        out
    }

    /// The currently asserted entity of `class` (or a subclass) whose
    /// unique field `idx` equals `value`: [`TemporalGraph::unique_holders`]
    /// at `Current`.
    pub fn find_unique(&self, class: ClassId, idx: usize, value: &Value) -> Option<Uid> {
        self.unique_holders(class, idx, value, TimeFilter::Current).first().copied()
    }

    /// The unique indexes' contents as `(declaring class, field index,
    /// value, current holder, former holders)` rows in key order — what a
    /// live store and one rebuilt from its chains must agree on.
    pub fn unique_index_rows(&self) -> Vec<UniqueIndexRow> {
        let mut rows = BTreeMap::new();
        for (&(c, i), m) in &self.unique {
            for (v, &u) in m {
                rows.entry((c, i, v)).or_insert((None, &[][..])).0 = Some(u);
            }
        }
        for (&(c, i), m) in &self.former {
            for (v, holders) in m {
                rows.entry((c, i, v)).or_insert((None, &[][..])).1 = holders;
            }
        }
        rows.into_iter().map(|((c, i, v), (u, f))| (c, i, v.clone(), u, f.to_vec())).collect()
    }

    // ------------------------------------------------------------------
    // Bulk restore (journal loading)
    // ------------------------------------------------------------------

    /// Restore one entity during journal load. Entities must arrive in
    /// dense uid order; versions must be chronologically sorted and
    /// non-overlapping. The unique and former-holder indexes are rebuilt
    /// from the chains afterwards via
    /// [`TemporalGraph::rebuild_unique_index`].
    pub(crate) fn restore_entity(
        &mut self,
        uid: Uid,
        is_node: bool,
        class: ClassId,
        src: Uid,
        dst: Uid,
        versions: Vec<(Ts, Ts, Vec<Value>)>,
    ) -> Result<()> {
        let mut raw = versions;
        let n = raw.len();
        let mut last_to = i64::MIN;
        for (from, to, fields) in raw.iter() {
            if *from >= *to || *from < last_to {
                return Err(GraphError::BadClass(format!(
                    "journal version span [{from},{to}) invalid for uid {}",
                    uid.0
                )));
            }
            last_to = *to;
            self.schema.validate_record(class, fields)?;
        }
        // Re-encode per the canonical keyframe/delta rule so a restored
        // store is byte-identical (accounting included) to the live one.
        let mut vs: Vec<Version> = Vec::with_capacity(n);
        let mut full_heap = 0u64;
        for i in 0..n {
            let fields = std::mem::take(&mut raw[i].2);
            full_heap += version_heap_bytes(&fields);
            let span = Interval::new(raw[i].0, raw[i].1);
            let data = if canonical_keep_full(i, n) {
                VersionData::Full(fields)
            } else {
                encode_history(fields, &raw[i + 1].2)
            };
            vs.push(Version { data, span });
        }
        let stored_heap = vs.iter().map(stored_version_bytes).sum::<u64>();
        self.restore_entity_encoded(uid, is_node, class, src, dst, vs, stored_heap, full_heap)
    }

    /// The schema's allowed-edge rules must permit an edge of `class` from a
    /// `src` node to a `dst` node.
    fn check_edge_allowed(&self, class: ClassId, src: ClassId, dst: ClassId) -> Result<()> {
        if self.schema.edge_allowed(class, src, dst) {
            return Ok(());
        }
        Err(GraphError::EdgeNotAllowed {
            edge_class: self.schema.class(class).name.clone(),
            src_class: self.schema.class(src).name.clone(),
            dst_class: self.schema.class(dst).name.clone(),
        })
    }

    /// Shared tail of entity restore: push the already-encoded chain and
    /// maintain adjacency, extents, and accounting. `stored_heap` /
    /// `full_heap` are the chain's Σ per-version stored and
    /// full-equivalent bytes (entry overhead is added here). The binary
    /// snapshot loader calls this directly with pre-decoded chains.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore_entity_encoded(
        &mut self,
        uid: Uid,
        is_node: bool,
        class: ClassId,
        src: Uid,
        dst: Uid,
        vs: Vec<Version>,
        stored_heap: u64,
        full_heap: u64,
    ) -> Result<()> {
        if uid.0 as usize != self.entries.len() {
            return Err(GraphError::BadClass(format!(
                "journal uid {} out of order (expected {})",
                uid.0,
                self.entries.len()
            )));
        }
        if vs.last().is_some_and(|v| v.is_delta()) {
            return Err(GraphError::BadClass(format!("uid {} chain head is not a full version", uid.0)));
        }
        let alive = vs.last().is_some_and(|v| v.span.is_current());
        let heap = ENTRY_OVERHEAD_BYTES + stored_heap;
        let n_versions = vs.len() as u64;
        if is_node {
            self.entries.push(Entry::Node(NodeEntry { versions: vs }));
            self.write_elem(uid, class);
            let slot = self.out_adj.len() as u32;
            self.adj_slot.push(slot);
            self.out_adj.push(AdjList::default());
            self.in_adj.push(AdjList::default());
            self.adj_bytes += ADJ_NODE_BYTES;
        } else {
            if src.0 >= uid.0 || dst.0 >= uid.0 {
                return Err(GraphError::BadClass(format!("edge {} references not-yet-restored endpoint", uid.0)));
            }
            self.node(src)?;
            self.node(dst)?;
            // A journal or snapshot written under a looser schema must not
            // bring in an edge this schema forbids: the evaluator's typed
            // table assumes there is none.
            self.check_edge_allowed(class, self.elems[src.0 as usize].class(), self.elems[dst.0 as usize].class())?;
            self.entries.push(Entry::Edge(EdgeEntry { src, dst, versions: vs }));
            self.write_elem(uid, class);
            self.adj_slot.push(u32::MAX);
            let ss = self.adj_slot[src.0 as usize] as usize;
            let ds = self.adj_slot[dst.0 as usize] as usize;
            let new_out = self.out_adj[ss].insert(AdjEntry { edge: uid, other: dst, class, out: true });
            let new_in = self.in_adj[ds].insert(AdjEntry { edge: uid, other: src, class, out: false });
            self.adj_bytes += 2 * ADJ_ENTRY_BYTES + (new_out as u64 + new_in as u64) * ADJ_BUCKET_BYTES;
        }
        self.extents[class.0 as usize].push(uid);
        if alive {
            self.alive[class.0 as usize] += 1;
        }
        self.version_count += n_versions;
        let acct = &mut self.acct[class.0 as usize];
        acct.entities += 1;
        acct.versions += n_versions;
        acct.bytes += heap;
        acct.full_bytes += ENTRY_OVERHEAD_BYTES + full_heap;
        Ok(())
    }

    /// Rebuild the unique and former-holder indexes from the version
    /// chains (journal and binary-snapshot loading), failing on constraint
    /// violations.
    pub(crate) fn rebuild_unique_index(&mut self) -> Result<()> {
        (self.unique, self.former) = self.build_unique_index()?;
        Ok(())
    }

    /// Both unique indexes as pure functions of the version chains, in one
    /// pass without materializing a version: a value a chain ever held is
    /// a `Full` version's field or a `Delta` entry on that field (backward
    /// deltas record the older value exactly where it changed).
    fn build_unique_index(&self) -> Result<(UniqueIndex, FormerIndex)> {
        let (mut unique, mut former) = (UniqueIndex::new(), FormerIndex::new());
        for (raw, (entry, elem)) in self.entries.iter().zip(&self.elems).enumerate() {
            let class = elem.class();
            let keys = &self.unique_keys[class.0 as usize];
            if keys.is_empty() {
                continue;
            }
            let uid = Uid(raw as u64);
            let vs = entry.versions();
            let head = vs.last().filter(|v| v.span.is_current()).map(|v| v.fields());
            if let Some(fields) = head {
                for &(idx, decl) in keys.iter() {
                    let v = &fields[idx];
                    if v.is_null() {
                        continue;
                    }
                    if unique.entry((decl, idx)).or_default().insert(v.clone(), uid).is_some() {
                        return Err(self.unique_violation(class, idx));
                    }
                }
                if vs.len() == 1 {
                    continue;
                }
            }
            for &(idx, decl) in keys.iter() {
                let now = head.map(|f| &f[idx]);
                for v in field_history(vs, idx) {
                    if Some(v) != now {
                        add_former(&mut former, (decl, idx), v, uid);
                    }
                }
            }
        }
        Ok((unique, former))
    }

    /// Approximate heap bytes used by versioned storage — used by the
    /// storage-overhead experiment (§6.1) to compare against materializing
    /// daily snapshots.
    pub fn approx_version_bytes(&self) -> u64 {
        let mut total = 0u64;
        for (e, elem) in self.entries.iter().zip(&self.elems) {
            // Uncompressed-equivalent estimate: every version priced at the
            // schema's field width for its class (delta versions included).
            let width = self.schema.all_fields(elem.class()).len() as u64;
            total += e.versions().len() as u64 * (16 /* span */ + 24 /* vec hdr */ + 40 * width);
            total += 48; // entry overhead
        }
        total
    }

    /// Stored vs full-equivalent bytes of *history* versions — every
    /// version except each chain's head. This isolates the delta-encoding
    /// win: heads are always stored full, so the head bytes would dilute
    /// the ratio on graphs dominated by single-version entities.
    /// Returns `(stored, full_equivalent)`; O(versions).
    pub fn history_version_bytes(&self) -> (u64, u64) {
        let mut stored = 0u64;
        let mut full = 0u64;
        for e in &self.entries {
            let vs = e.versions();
            let n = vs.len();
            for (i, v) in vs.iter().take(n.saturating_sub(1)).enumerate() {
                stored += stored_version_bytes(v);
                full += version_heap_bytes(&materialize_version(vs, i));
            }
        }
        (stored, full)
    }

    // ------------------------------------------------------------------
    // Memory reporting
    // ------------------------------------------------------------------

    /// Estimated unique-index bytes: one map header per index plus each
    /// key's slot, heap, and uid payload; a former-holder key also carries
    /// its `Vec` header and one uid per holder. Computed on demand (indexes
    /// are small relative to version chains).
    fn unique_index_bytes(unique: &UniqueIndex, former: &FormerIndex) -> u64 {
        const UID_BYTES: u64 = std::mem::size_of::<Uid>() as u64;
        const VEC_HEADER_BYTES: u64 = std::mem::size_of::<Vec<Uid>>() as u64;
        let key_bytes = |k: &Value| VALUE_SLOT_BYTES + value_heap_bytes(k);
        let current: u64 =
            unique.values().map(|m| MAP_HEADER_BYTES + m.keys().map(|k| key_bytes(k) + UID_BYTES).sum::<u64>()).sum();
        let former: u64 = former
            .values()
            .map(|m| {
                MAP_HEADER_BYTES
                    + m.iter().map(|(k, h)| key_bytes(k) + VEC_HEADER_BYTES + UID_BYTES * h.len() as u64).sum::<u64>()
            })
            .sum();
        MAP_HEADER_BYTES + current + former
    }

    /// Version-chain length distribution in log₂ buckets, as
    /// `(≤ bound, entities)` over non-empty buckets. O(entities).
    fn chain_histogram(&self) -> Vec<(u64, u64)> {
        let mut counts = [0u64; 64];
        for e in &self.entries {
            let len = e.versions().len() as u64;
            // Same bucketing as the obs histogram: smallest i with len ≤ 2^i.
            let idx = ((64 - len.saturating_sub(1).leading_zeros()) as usize).min(63);
            counts[idx] += 1;
        }
        counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (if i >= 63 { u64::MAX } else { 1u64 << i }, n))
            .collect()
    }

    fn assemble_report(
        &self,
        classes: Vec<ClassMemory>,
        adjacency_bytes: u64,
        unique_index_bytes: u64,
    ) -> MemoryReport {
        let entity_bytes = classes.iter().map(|c| c.bytes).sum();
        let entity_full_bytes = classes.iter().map(|c| c.full_bytes).sum();
        MemoryReport {
            total_bytes: entity_bytes + adjacency_bytes + unique_index_bytes,
            entity_bytes,
            entity_full_bytes,
            adjacency_bytes,
            unique_index_bytes,
            journal_bytes: crate::journal::journal_bytes(self),
            chain_histogram: self.chain_histogram(),
            classes,
        }
    }

    /// Cheap per-class memory rows straight from the incremental
    /// accounting — O(classes), no store walk. The fast path behind
    /// [`StoreGauges::refresh`](crate::metrics::StoreGauges::refresh).
    pub fn class_memory(&self) -> Vec<ClassMemory> {
        let mut classes = Vec::new();
        for (i, acct) in self.acct.iter().enumerate() {
            if acct.entities == 0 {
                continue;
            }
            let class = ClassId(i as u32);
            classes.push(ClassMemory {
                class,
                name: self.schema.class(class).name.clone(),
                kind: self.schema.kind(class),
                entities: acct.entities,
                alive: self.alive[i],
                versions: acct.versions,
                bytes: acct.bytes,
                full_bytes: acct.full_bytes,
            });
        }
        classes
    }

    /// Estimated adjacency-structure bytes, maintained incrementally.
    pub fn adjacency_bytes(&self) -> u64 {
        self.adj_bytes
    }

    /// Snapshot of the store's estimated memory footprint, assembled from
    /// the incrementally maintained per-class accounting. The per-class
    /// byte figures are O(classes); the chain histogram and journal size
    /// walk the store once.
    pub fn memory_report(&self) -> MemoryReport {
        let unique_index_bytes = Self::unique_index_bytes(&self.unique, &self.former);
        self.assemble_report(self.class_memory(), self.adj_bytes, unique_index_bytes)
    }

    /// The element column, indexed by uid.
    pub fn elem_column(&self) -> &[ElemWord] {
        &self.elems
    }

    /// The `since` column, indexed by uid.
    pub fn since_column(&self) -> &[Ts] {
        &self.since
    }

    /// The element and `since` columns rebuilt from their definitions,
    /// ignoring the live ones: each uid's class from the class extent that
    /// lists it, its kind from its entry, its open bit, one-version bit and
    /// `since` instant from its chain. Tests pin
    /// [`TemporalGraph::elem_column`] and [`TemporalGraph::since_column`]
    /// to this after every mutation path.
    pub fn elem_column_recount(&self) -> (Vec<ElemWord>, Vec<Ts>) {
        let mut class = vec![None; self.entries.len()];
        for (c, extent) in self.extents.iter().enumerate() {
            for u in extent {
                class[u.0 as usize] = Some(ClassId(c as u32));
            }
        }
        self.entries
            .iter()
            .zip(class)
            .map(|(e, c)| (e.elem_word(c.expect("every uid sits in its class extent")), e.since()))
            .unzip()
    }

    /// Brute-force recount: rebuild the entire [`MemoryReport`] by walking
    /// every entry, version, and adjacency list, ignoring the incremental
    /// accounting. The churn proptest pins `memory_report` to this walk.
    pub fn memory_recount(&self) -> MemoryReport {
        let n = self.schema.num_classes();
        let mut per = vec![ClassAccounting::default(); n];
        let mut alive = vec![0u64; n];
        for (e, elem) in self.entries.iter().zip(&self.elems) {
            let c = elem.class().0 as usize;
            let vs = e.versions();
            per[c].entities += 1;
            per[c].versions += vs.len() as u64;
            per[c].bytes += ENTRY_OVERHEAD_BYTES + vs.iter().map(stored_version_bytes).sum::<u64>();
            // Full-equivalent cost: every version priced at its
            // materialized values (what an uncompressed store would hold).
            per[c].full_bytes += ENTRY_OVERHEAD_BYTES
                + (0..vs.len()).map(|i| version_heap_bytes(&materialize_version(vs, i))).sum::<u64>();
            alive[c] += vs.last().is_some_and(|v| v.span.is_current()) as u64;
        }
        let mut classes = Vec::new();
        for (i, acct) in per.iter().enumerate() {
            if acct.entities == 0 {
                continue;
            }
            let class = ClassId(i as u32);
            classes.push(ClassMemory {
                class,
                name: self.schema.class(class).name.clone(),
                kind: self.schema.kind(class),
                entities: acct.entities,
                alive: alive[i],
                versions: acct.versions,
                bytes: acct.bytes,
                full_bytes: acct.full_bytes,
            });
        }
        let adjacency_bytes = self
            .out_adj
            .iter()
            .chain(self.in_adj.iter())
            .map(|l| std::mem::size_of::<AdjList>() as u64 + l.heap_bytes())
            .sum();
        // The index bytes come from indexes rebuilt from the chains, which
        // pins the incremental index maintenance to its definition.
        let (unique, former) =
            self.build_unique_index().expect("every mutation path rejects unique violations before storing");
        let unique_index_bytes = Self::unique_index_bytes(&unique, &former);
        self.assemble_report(classes, adjacency_bytes, unique_index_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nepal_schema::dsl::parse_schema;

    fn schema() -> Arc<Schema> {
        Arc::new(
            parse_schema(
                r#"
                node VM { vm_id: int unique, status: str }
                node Host { host_id: int unique }
                edge HostedOn { }
                allow HostedOn (VM -> Host)
                "#,
            )
            .unwrap(),
        )
    }

    fn vm(g: &mut TemporalGraph, id: i64, ts: Ts) -> Uid {
        let c = g.schema().class_by_name("VM").unwrap();
        g.insert_node(c, vec![Value::Int(id), Value::Str("Green".into())], ts).unwrap()
    }

    #[test]
    fn insert_update_delete_versioning() {
        let s = schema();
        let mut g = TemporalGraph::new(s);
        let u = vm(&mut g, 1, 100);
        assert!(g.current_version(u).is_some());
        g.update(u, &[(1, Value::Str("Red".into()))], 200).unwrap();
        assert_eq!(g.versions(u).len(), 2);
        // Time travel: at 150 the status is still Green.
        assert_eq!(g.fields_at(u, 150).unwrap()[1], Value::Str("Green".into()));
        assert_eq!(g.fields_at(u, 250).unwrap()[1], Value::Str("Red".into()));
        g.delete(u, 300).unwrap();
        assert!(g.current_version(u).is_none());
        assert!(g.version_at(u, 250).is_some());
        assert!(g.version_at(u, 300).is_none());
        assert_eq!(g.alive_set(u).intervals(), &[Interval::new(100, 300)]);
    }

    #[test]
    fn edge_rules_enforced_on_insert() {
        let s = schema();
        let mut g = TemporalGraph::new(s.clone());
        let v = vm(&mut g, 1, 0);
        let hc = s.class_by_name("Host").unwrap();
        let h = g.insert_node(hc, vec![Value::Int(7)], 0).unwrap();
        let ec = s.class_by_name("HostedOn").unwrap();
        g.insert_edge(ec, v, h, vec![], 10).unwrap();
        // Reverse direction forbidden by the allow rule.
        let err = g.insert_edge(ec, h, v, vec![], 10).unwrap_err();
        assert!(matches!(err, GraphError::EdgeNotAllowed { .. }));
    }

    #[test]
    fn delete_node_cascades_to_edges() {
        let s = schema();
        let mut g = TemporalGraph::new(s.clone());
        let v = vm(&mut g, 1, 0);
        let hc = s.class_by_name("Host").unwrap();
        let h = g.insert_node(hc, vec![Value::Int(7)], 0).unwrap();
        let ec = s.class_by_name("HostedOn").unwrap();
        let e = g.insert_edge(ec, v, h, vec![], 0).unwrap();
        g.delete(h, 50).unwrap();
        assert!(g.current_version(e).is_none());
        assert!(g.version_at(e, 25).is_some());
        // VM survives.
        assert!(g.current_version(v).is_some());
    }

    #[test]
    fn unique_constraint_blocks_garbage() {
        // "strong typing and uniqueness constraints ... prevented us from
        // loading garbage data into the graphs" (§6.1).
        let s = schema();
        let mut g = TemporalGraph::new(s);
        vm(&mut g, 1, 0);
        let c = g.schema().class_by_name("VM").unwrap();
        let err = g.insert_node(c, vec![Value::Int(1), Value::Str("Green".into())], 1).unwrap_err();
        assert!(matches!(err, GraphError::UniqueViolation { .. }));
    }

    #[test]
    fn unique_released_after_delete_and_rekeyed_on_update() {
        let s = schema();
        let mut g = TemporalGraph::new(s);
        let u = vm(&mut g, 1, 0);
        g.update(u, &[(0, Value::Int(2))], 10).unwrap();
        // id 1 free again.
        let u2 = vm(&mut g, 1, 20);
        g.delete(u2, 30).unwrap();
        let _u3 = vm(&mut g, 1, 40); // free after delete
        let c = g.schema().class_by_name("VM").unwrap();
        assert_eq!(g.find_unique(c, 0, &Value::Int(2)), Some(u));
    }

    #[test]
    fn alive_counts_track_mutations() {
        let s = schema();
        let mut g = TemporalGraph::new(s.clone());
        let c = s.class_by_name("VM").unwrap();
        let u1 = vm(&mut g, 1, 0);
        let _u2 = vm(&mut g, 2, 0);
        assert_eq!(g.alive_count(c), 2);
        g.delete(u1, 5).unwrap();
        assert_eq!(g.alive_count(c), 1);
        assert_eq!(g.alive_count(nepal_schema::NODE), 1);
    }

    #[test]
    fn type_errors_rejected_at_insert() {
        let s = schema();
        let mut g = TemporalGraph::new(s.clone());
        let c = s.class_by_name("VM").unwrap();
        assert!(g.insert_node(c, vec![Value::Str("oops".into()), Value::Str("x".into())], 0).is_err());
        // Edge class used as node class.
        let ec = s.class_by_name("HostedOn").unwrap();
        assert!(matches!(g.insert_node(ec, vec![], 0), Err(GraphError::BadClass(_))));
    }

    #[test]
    fn same_instant_update_replaces_version() {
        let s = schema();
        let mut g = TemporalGraph::new(s);
        let u = vm(&mut g, 1, 100);
        g.update(u, &[(1, Value::Str("Red".into()))], 100).unwrap();
        assert_eq!(g.versions(u).len(), 1);
        assert_eq!(g.current_version(u).unwrap().fields()[1], Value::Str("Red".into()));
    }

    #[test]
    fn adjacency_buckets_group_by_exact_edge_class() {
        let s = Arc::new(
            parse_schema(
                r#"
                node VM { vm_id: int unique, status: str }
                node Host { host_id: int unique }
                edge HostedOn { }
                edge Linked : HostedOn { }
                allow HostedOn (VM -> Host)
                "#,
            )
            .unwrap(),
        );
        let mut g = TemporalGraph::new(s.clone());
        let v = vm(&mut g, 1, 0);
        let hc = s.class_by_name("Host").unwrap();
        let hosted = s.class_by_name("HostedOn").unwrap();
        let linked = s.class_by_name("Linked").unwrap();
        let hosts: Vec<Uid> = (0..4).map(|i| g.insert_node(hc, vec![Value::Int(i)], 0).unwrap()).collect();
        // Interleave the two edge classes; buckets must re-group them.
        let e0 = g.insert_edge(hosted, v, hosts[0], vec![], 1).unwrap();
        let e1 = g.insert_edge(linked, v, hosts[1], vec![], 2).unwrap();
        let e2 = g.insert_edge(hosted, v, hosts[2], vec![], 3).unwrap();
        let e3 = g.insert_edge(linked, v, hosts[3], vec![], 4).unwrap();

        let list = g.out_adj_list(v);
        let runs: Vec<(ClassId, Vec<Uid>)> =
            list.buckets().map(|(c, es)| (c, es.iter().map(|a| a.edge).collect())).collect();
        assert_eq!(runs, vec![(hosted, vec![e0, e2]), (linked, vec![e1, e3])]);
        // The flat view covers the same entries, grouped.
        assert_eq!(list.entries().len(), 4);
        assert!(list.entries().iter().all(|a| a.out && Some(a.class) == g.class_of(a.edge)));
        // In-adjacency carries direction = false and the same denormalized class.
        let in0 = g.in_adj(hosts[0]);
        assert_eq!(in0.len(), 1);
        assert!(!in0[0].out);
        assert_eq!(in0[0].class, hosted);
        assert_eq!(in0[0].other, v);
    }

    #[test]
    fn versions_overlapping_range() {
        let s = schema();
        let mut g = TemporalGraph::new(s);
        let u = vm(&mut g, 1, 0);
        g.update(u, &[(1, Value::Str("A".into()))], 10).unwrap();
        g.update(u, &[(1, Value::Str("B".into()))], 20).unwrap();
        let vs = g.versions_overlapping(u, &Interval::new(5, 15));
        assert_eq!(vs.len(), 2); // [0,10) and [10,20)
        let vs = g.versions_overlapping(u, &Interval::new(25, 30));
        assert_eq!(vs.len(), 1); // [20, ∞)
    }

    /// The live element and `since` columns equal the ones rebuilt from
    /// extents, entries and chains.
    fn assert_column_matches_recount(g: &TemporalGraph) {
        assert_eq!(g.elem_column().len(), g.num_entities());
        let (words, since) = g.elem_column_recount();
        assert_eq!(g.elem_column(), words, "element column drifted from the chains");
        assert_eq!(g.since_column(), since, "since column drifted from the chains");
    }

    fn assert_report_matches_recount(g: &TemporalGraph) {
        assert_column_matches_recount(g);
        let report = g.memory_report();
        let recount = g.memory_recount();
        assert_eq!(report.entity_bytes, recount.entity_bytes, "entity bytes drifted from recount");
        assert_eq!(report.entity_full_bytes, recount.entity_full_bytes, "full-equivalent bytes drifted from recount");
        assert_eq!(report.adjacency_bytes, recount.adjacency_bytes, "adjacency bytes drifted");
        assert_eq!(report.unique_index_bytes, recount.unique_index_bytes);
        assert_eq!(report.total_bytes, recount.total_bytes);
        assert_eq!(report.chain_histogram, recount.chain_histogram);
        assert_eq!(report.classes.len(), recount.classes.len());
        for (a, b) in report.classes.iter().zip(recount.classes.iter()) {
            assert_eq!(
                (a.class, a.entities, a.alive, a.versions, a.bytes, a.full_bytes),
                (b.class, b.entities, b.alive, b.versions, b.bytes, b.full_bytes),
                "class {} accounting drifted",
                a.name
            );
        }
    }

    #[test]
    fn accounting_tracks_every_mutation_path() {
        let s = schema();
        let mut g = TemporalGraph::new(s.clone());
        assert_eq!(g.memory_report().entity_bytes, 0);

        // Inserts: nodes, then an edge (adjacency bytes appear).
        let v = vm(&mut g, 1, 0);
        let hc = s.class_by_name("Host").unwrap();
        let h = g.insert_node(hc, vec![Value::Int(7)], 0).unwrap();
        let ec = s.class_by_name("HostedOn").unwrap();
        let e = g.insert_edge(ec, v, h, vec![], 10).unwrap();
        assert_report_matches_recount(&g);
        let after_edges = g.memory_report();
        assert!(after_edges.adjacency_bytes > 0);
        assert!(after_edges.journal_bytes > 0);

        // Update grows the chain; a longer string grows the payload bytes.
        let before = g.memory_report().entity_bytes;
        g.update(v, &[(1, Value::Str("a much longer status string".into()))], 20).unwrap();
        assert!(g.memory_report().entity_bytes > before);
        assert_report_matches_recount(&g);

        // Same-instant update rewrites in place (no extra version).
        g.update(v, &[(1, Value::Str("Red".into()))], 20).unwrap();
        assert_report_matches_recount(&g);

        // Re-keys, at a fresh instant and then in place: the closed
        // version keeps vm_id 1, so the former-holder map gains it.
        g.update(v, &[(0, Value::Int(3))], 30).unwrap();
        assert_column_matches_recount(&g);
        g.update(v, &[(0, Value::Int(4))], 30).unwrap();
        assert_report_matches_recount(&g);
        assert!(g.elem(v).is_some_and(|w| w.is_open() && w.is_node()));

        // Deletes close version chains (cascade closes the edge too).
        g.delete(h, 50).unwrap();
        assert!(g.current_version(e).is_none());
        assert_eq!(g.elem(e).map(|w| (w.class(), w.is_node(), w.is_open())), Some((ec, false, false)));
        assert_eq!(g.elem(h).map(|w| (w.class(), w.is_open())), Some((hc, false)));
        assert_report_matches_recount(&g);

        // Same-instant insert+delete pops the version entirely.
        let v2 = vm(&mut g, 2, 100);
        assert!(g.elem(v2).is_some_and(ElemWord::is_open));
        g.delete(v2, 100).unwrap();
        assert!(g.versions(v2).is_empty());
        assert!(g.elem(v2).is_some_and(|w| !w.is_open() && w.is_node()));
        assert_report_matches_recount(&g);

        // Per-class split: VM vs Host vs HostedOn all present.
        let report = g.memory_report();
        let names: Vec<&str> = report.classes.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"VM") && names.contains(&"Host") && names.contains(&"HostedOn"));
        let vm_row = report.classes.iter().find(|c| c.name == "VM").unwrap();
        assert_eq!(vm_row.kind, ClassKind::Node);
        assert_eq!(vm_row.entities, 2);
        assert_eq!(vm_row.alive, 1);
    }

    #[test]
    fn entry_slots_hold_no_class() {
        // The class lives in the 4-byte element column only and the uid is
        // the slot's index; an edge entry is its two endpoints and the
        // chain. The 8 B the uid field took pay for the `since` column.
        assert_eq!(std::mem::size_of::<Entry>(), 40);
        assert_eq!(std::mem::size_of::<ElemWord>(), 4);
        assert_eq!(std::mem::size_of::<Ts>(), 8);
        assert_eq!(ENTRY_OVERHEAD_BYTES, 40 + 4 + 4 + 8 + 8);
    }

    #[test]
    fn same_instant_pop_back_to_an_older_head_keeps_the_column() {
        // Insert, update, then delete at the update's instant: the popped
        // head leaves a closed version, so the entity is dead.
        let s = schema();
        let mut g = TemporalGraph::new(s);
        let u = vm(&mut g, 1, 10);
        g.update(u, &[(1, Value::Str("Red".into()))], 20).unwrap();
        g.delete(u, 20).unwrap();
        assert_eq!(g.versions(u).len(), 1);
        assert!(!g.elem(u).unwrap().is_open());
        assert_column_matches_recount(&g);
    }

    #[test]
    fn unique_index_bytes_count_former_holders() {
        let s = schema();
        let mut g = TemporalGraph::new(s.clone());
        let v = vm(&mut g, 1, 0);
        let w = vm(&mut g, 2, 0);
        let current_key = VALUE_SLOT_BYTES + std::mem::size_of::<Uid>() as u64;
        let former_key = |holders: u64| {
            VALUE_SLOT_BYTES + std::mem::size_of::<Vec<Uid>>() as u64 + holders * std::mem::size_of::<Uid>() as u64
        };
        let base = MAP_HEADER_BYTES + MAP_HEADER_BYTES + 2 * current_key;
        assert_eq!(g.memory_report().unique_index_bytes, base);
        // v moves from 1 to 3: one former key with one holder.
        g.update(v, &[(0, Value::Int(3))], 10).unwrap();
        assert_eq!(g.memory_report().unique_index_bytes, base + MAP_HEADER_BYTES + former_key(1));
        assert_report_matches_recount(&g);
        // w takes 1 over, then dies: 1 has two former holders, 2 has one,
        // and only v's 3 is still current.
        g.update(w, &[(0, Value::Int(1))], 20).unwrap();
        g.delete(w, 30).unwrap();
        let bytes =
            MAP_HEADER_BYTES + MAP_HEADER_BYTES + current_key + MAP_HEADER_BYTES + former_key(2) + former_key(1);
        assert_eq!(g.memory_report().unique_index_bytes, bytes);
        assert_report_matches_recount(&g);
        let mut buf = Vec::new();
        crate::journal::save_graph(&g, &mut buf).unwrap();
        let restored = crate::journal::load_graph(s, &mut buf.as_slice()).unwrap();
        assert_eq!(restored.unique_index_rows(), g.unique_index_rows());
        assert_eq!(restored.memory_report().unique_index_bytes, bytes);
    }

    #[test]
    fn accounting_survives_journal_round_trip() {
        let s = schema();
        let mut g = TemporalGraph::new(s.clone());
        let v = vm(&mut g, 1, 0);
        let hc = s.class_by_name("Host").unwrap();
        let h = g.insert_node(hc, vec![Value::Int(7)], 0).unwrap();
        let ec = s.class_by_name("HostedOn").unwrap();
        g.insert_edge(ec, v, h, vec![], 10).unwrap();
        g.update(v, &[(1, Value::Str("Red".into()))], 20).unwrap();

        let mut buf = Vec::new();
        crate::journal::save_graph(&g, &mut buf).unwrap();
        assert_eq!(crate::journal::journal_bytes(&g), buf.len() as u64);
        let restored = crate::journal::load_graph(s, &mut buf.as_slice()).unwrap();
        // restore_entity must maintain the same incremental accounting.
        assert_report_matches_recount(&restored);
        assert_eq!(restored.memory_report().total_bytes, g.memory_report().total_bytes);
    }

    #[test]
    fn delta_chains_materialize_exactly_and_save_bytes() {
        let s = schema();
        let mut g = TemporalGraph::new(s);
        let u = vm(&mut g, 1, 0);
        // 40 single-field updates: crosses two keyframe boundaries.
        for i in 1..=40i64 {
            g.update(u, &[(1, Value::Str(format!("status-{i}")))], i * 10).unwrap();
        }
        let vs = g.versions(u);
        assert_eq!(vs.len(), 41);
        assert!(!vs.last().unwrap().is_delta(), "head must stay full");
        assert!(!vs[0].is_delta() && !vs[16].is_delta() && !vs[32].is_delta(), "keyframes must stay full");
        assert!(vs[1].is_delta() && vs[17].is_delta(), "between-keyframe history must delta-encode");
        // Every historical read reconstructs the exact values.
        assert_eq!(g.fields_at(u, 5).unwrap()[1], Value::Str("Green".into()));
        for i in 1..=40i64 {
            let f = g.fields_at(u, i * 10).unwrap();
            assert_eq!(f[1], Value::Str(format!("status-{i}")), "at ts {}", i * 10);
            assert_eq!(f[0], Value::Int(1), "unchanged field must survive delta chains");
        }
        // The saving is real and the incremental accounting stays exact.
        let report = g.memory_report();
        assert!(report.entity_bytes < report.entity_full_bytes);
        // Only two fields here, so the per-version delta win is modest;
        // the ≥30% bench gate runs against the wide ONAP classes.
        assert!(report.delta_savings_pct() > 15.0, "saving was {:.1}%", report.delta_savings_pct());
        assert_report_matches_recount(&g);
    }

    #[test]
    fn same_instant_rewrite_reencodes_previous_delta() {
        let s = schema();
        let mut g = TemporalGraph::new(s);
        let u = vm(&mut g, 1, 0);
        for i in 1..=3i64 {
            g.update(u, &[(1, Value::Str(format!("v{i}")))], i * 10).unwrap();
        }
        // Rewrite the head in place at its own open instant: the delta of
        // the previous version was encoded against the old head values.
        g.update(u, &[(1, Value::Str("v2".into()))], 30).unwrap();
        assert_eq!(g.fields_at(u, 25).unwrap()[1], Value::Str("v2".into()));
        assert_eq!(g.fields_at(u, 15).unwrap()[1], Value::Str("v1".into()));
        assert_eq!(g.current_version(u).unwrap().fields()[1], Value::Str("v2".into()));
        assert_report_matches_recount(&g);
    }

    #[test]
    fn same_instant_pop_promotes_new_head_to_full() {
        let s = schema();
        let mut g = TemporalGraph::new(s);
        let u = vm(&mut g, 1, 10);
        g.update(u, &[(1, Value::Str("mid".into()))], 20).unwrap();
        g.update(u, &[(1, Value::Str("last".into()))], 30).unwrap();
        assert!(g.versions(u)[1].is_delta());
        // Deleting at the head's own open instant pops it; the version
        // below (a delta against the popped head) becomes the chain head.
        g.delete(u, 30).unwrap();
        let vs = g.versions(u);
        assert_eq!(vs.len(), 2);
        assert!(!vs.last().unwrap().is_delta(), "promoted head must be full");
        assert_eq!(g.fields_at(u, 25).unwrap()[1], Value::Str("mid".into()));
        assert_report_matches_recount(&g);
    }

    #[test]
    fn value_heap_bytes_covers_nested_containers() {
        assert_eq!(value_heap_bytes(&Value::Int(7)), 0);
        assert_eq!(value_heap_bytes(&Value::Str("abcd".into())), 4);
        let list = Value::List(vec![Value::Str("ab".into()), Value::Int(1)]);
        assert_eq!(value_heap_bytes(&list), 2 * VALUE_SLOT_BYTES + 2);
        let nested = Value::List(vec![list.clone()]);
        assert_eq!(value_heap_bytes(&nested), VALUE_SLOT_BYTES + value_heap_bytes(&list));
    }
}
