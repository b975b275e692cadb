//! The Nepal class system: single-rooted hierarchies of node and edge
//! classes, the *strongly-typed concepts* abstraction of §3.2.
//!
//! Every node and edge belongs to a specific class; classes form a single
//! rooted tree with base class `Entity` and its two built-in subclasses
//! `Node` and `Edge`. A subclass inherits all fields of its parent and may
//! add more. An atom such as `VM(...)` in a query refers to the class `VM`
//! *and all of its (transitive) subclasses*, but may reference only the
//! fields declared at or above `VM` — exactly the paper's semantics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{Result, SchemaError};
use crate::types::{DataTypeDef, DataTypeId, DataTypeRegistry, FieldDef};
use crate::value::Value;

/// Identifier of a class within a schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Whether a class describes nodes or edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassKind {
    Node,
    Edge,
}

/// Definition of one class.
#[derive(Debug, Clone)]
pub struct ClassDef {
    pub name: String,
    pub kind: ClassKind,
    /// Parent class; `None` only for the `Entity` root.
    pub parent: Option<ClassId>,
    /// Fields declared directly on this class (inherited fields excluded).
    pub own_fields: Vec<FieldDef>,
    /// Optional cardinality hint used by the anchor-costing optimizer when
    /// database statistics are unavailable (§5.1).
    pub hint_cardinality: Option<u64>,
}

/// An allowed-edge rule: edges of class `edge` (or subclasses) may connect a
/// source node of class `from` (or subclasses) to a target node of class
/// `to` (or subclasses). Mirrors TOSCA capability types (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRule {
    pub edge: ClassId,
    pub from: ClassId,
    pub to: ClassId,
}

/// An immutable, fully validated Nepal schema.
#[derive(Debug, Clone)]
pub struct Schema {
    pub(crate) classes: Vec<ClassDef>,
    by_name: HashMap<String, ClassId>,
    data_types: DataTypeRegistry,
    edge_rules: Vec<EdgeRule>,
    /// Flattened field layout per class (ancestor fields first).
    layouts: Vec<Vec<FieldDef>>,
    /// Children adjacency for subtree enumeration.
    children: Vec<Vec<ClassId>>,
    /// DFS pre-order interval per class; `is_subclass` is an O(1) interval
    /// containment test.
    tin: Vec<u32>,
    tout: Vec<u32>,
    /// Process-unique identity, drawn when the schema is built.
    id: u64,
}

/// The id of the `Entity` root class (always 0).
pub const ENTITY: ClassId = ClassId(0);
/// The id of the `Node` root class (always 1).
pub const NODE: ClassId = ClassId(1);
/// The id of the `Edge` root class (always 2).
pub const EDGE: ClassId = ClassId(2);

impl Schema {
    /// This schema's process-unique identity. A schema is immutable once
    /// [`SchemaBuilder::finish`] returns it, so anything derived from it
    /// alone can be cached under this id; a clone keeps the id, a rebuilt
    /// schema (even an identical one) gets a new one.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of classes, including the three built-in roots.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    pub fn class(&self, id: ClassId) -> &ClassDef {
        &self.classes[id.0 as usize]
    }

    /// Look a class up by simple name, or by qualified inheritance path
    /// (e.g. `VM:VMWare` or `Node:VM:VMWare` — the last segment decides, the
    /// rest is verified).
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        if let Some(&id) = self.by_name.get(name) {
            return Some(id);
        }
        let mut segs = name.rsplit(':');
        let last = segs.next()?;
        let id = *self.by_name.get(last)?;
        // Verify every earlier segment is an ancestor.
        for seg in segs {
            let anc = *self.by_name.get(seg)?;
            if !self.is_subclass(id, anc) {
                return None;
            }
        }
        Some(id)
    }

    pub fn kind(&self, id: ClassId) -> ClassKind {
        self.class(id).kind
    }

    /// `true` iff `a` equals `b` or is (transitively) derived from `b`.
    pub fn is_subclass(&self, a: ClassId, b: ClassId) -> bool {
        self.tin[b.0 as usize] <= self.tin[a.0 as usize] && self.tin[a.0 as usize] <= self.tout[b.0 as usize]
    }

    /// Position of `id` in the class tree's DFS pre-order (`Entity` is 0).
    pub fn preorder(&self, id: ClassId) -> usize {
        self.tin[id.0 as usize] as usize - 1
    }

    /// The pre-order positions of `id` and all its subclasses: one
    /// contiguous range, so a set of classes closed under subclassing is a
    /// union of such ranges.
    pub fn subtree(&self, id: ClassId) -> std::ops::Range<usize> {
        self.preorder(id)..self.tout[id.0 as usize] as usize
    }

    /// All classes in the subtree rooted at `id`, including `id` itself.
    pub fn descendants(&self, id: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(c) = stack.pop() {
            out.push(c);
            stack.extend(self.children[c.0 as usize].iter().copied());
        }
        out
    }

    /// Direct children of a class.
    pub fn children(&self, id: ClassId) -> &[ClassId] {
        &self.children[id.0 as usize]
    }

    /// Ancestor chain from `id` up to `Entity`, inclusive on both ends.
    pub fn ancestors(&self, id: ClassId) -> Vec<ClassId> {
        let mut out = vec![id];
        let mut cur = self.class(id).parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.class(p).parent;
        }
        out
    }

    /// Least common ancestor of two classes (used to type `source(P)` /
    /// `target(P)` expressions, §3.4).
    pub fn lca(&self, a: ClassId, b: ClassId) -> ClassId {
        let anc_a = self.ancestors(a);
        let mut cur = b;
        loop {
            if anc_a.contains(&cur) {
                return cur;
            }
            match self.class(cur).parent {
                Some(p) => cur = p,
                None => return ENTITY,
            }
        }
    }

    /// Full inheritance path name, e.g. `Node:VM:VMWare`. This is exactly
    /// the label encoding used by the Gremlin backend (§5.2).
    pub fn path_name(&self, id: ClassId) -> String {
        let mut chain = self.ancestors(id);
        chain.pop(); // drop Entity
        chain.reverse();
        chain.iter().map(|c| self.class(*c).name.as_str()).collect::<Vec<_>>().join(":")
    }

    /// The complete field layout of a class: ancestors' fields first, then
    /// own fields, in declaration order.
    pub fn all_fields(&self, id: ClassId) -> &[FieldDef] {
        &self.layouts[id.0 as usize]
    }

    /// Resolve a field by name on a class; returns its layout index.
    pub fn resolve_field(&self, class: ClassId, name: &str) -> Option<(usize, &FieldDef)> {
        self.layouts[class.0 as usize].iter().enumerate().find(|(_, f)| f.name == name)
    }

    /// Layout indexes of all unique fields of a class.
    pub fn unique_fields(&self, class: ClassId) -> Vec<usize> {
        self.layouts[class.0 as usize].iter().enumerate().filter(|(_, f)| f.unique).map(|(i, _)| i).collect()
    }

    pub fn data_types(&self) -> &DataTypeRegistry {
        &self.data_types
    }

    pub fn edge_rules(&self) -> &[EdgeRule] {
        &self.edge_rules
    }

    /// Check whether an edge of class `edge` may connect `src` to `dst`.
    ///
    /// If the schema declares no `allow` rules at all it is an *open
    /// topology* (the mode used to load the legacy graph of §6 "as
    /// provided") and every connection is permitted.
    pub fn edge_allowed(&self, edge: ClassId, src: ClassId, dst: ClassId) -> bool {
        if self.edge_rules.is_empty() {
            return true;
        }
        self.edge_rules
            .iter()
            .any(|r| self.is_subclass(edge, r.edge) && self.is_subclass(src, r.from) && self.is_subclass(dst, r.to))
    }

    /// Validate a full record of class `class` against the layout:
    /// arity, per-field types, and required (non-null) fields.
    pub fn validate_record(&self, class: ClassId, values: &[Value]) -> Result<()> {
        let layout = self.all_fields(class);
        if layout.len() != values.len() {
            return Err(SchemaError::TypeMismatch {
                field: format!("<record of {}>", self.class(class).name),
                expected: format!("{} fields", layout.len()),
                got: format!("{} fields", values.len()),
            });
        }
        for (fd, v) in layout.iter().zip(values) {
            if v.is_null() {
                if fd.required {
                    return Err(SchemaError::MissingField {
                        class: self.class(class).name.clone(),
                        field: fd.name.clone(),
                    });
                }
                continue;
            }
            self.data_types.validate_value(&fd.ty, v).map_err(|e| match e {
                SchemaError::TypeMismatch { expected, got, .. } => {
                    SchemaError::TypeMismatch { field: fd.name.clone(), expected, got }
                }
                other => other,
            })?;
        }
        Ok(())
    }

    /// All node classes (excluding `Entity`/`Edge` subtrees).
    pub fn node_classes(&self) -> Vec<ClassId> {
        self.descendants(NODE)
    }

    /// All edge classes.
    pub fn edge_classes(&self) -> Vec<ClassId> {
        self.descendants(EDGE)
    }
}

/// Builder for [`Schema`]. Classes must be registered parents-first, which
/// keeps both hierarchies acyclic by construction.
#[derive(Debug)]
pub struct SchemaBuilder {
    classes: Vec<ClassDef>,
    by_name: HashMap<String, ClassId>,
    data_types: DataTypeRegistry,
    edge_rules: Vec<EdgeRule>,
}

impl Default for SchemaBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SchemaBuilder {
    pub fn new() -> Self {
        let mut b = SchemaBuilder {
            classes: Vec::new(),
            by_name: HashMap::new(),
            data_types: DataTypeRegistry::default(),
            edge_rules: Vec::new(),
        };
        b.push_class(ClassDef {
            name: "Entity".into(),
            kind: ClassKind::Node, // kind of Entity itself is never consulted
            parent: None,
            own_fields: vec![],
            hint_cardinality: None,
        })
        .unwrap();
        b.push_class(ClassDef {
            name: "Node".into(),
            kind: ClassKind::Node,
            parent: Some(ENTITY),
            own_fields: vec![],
            hint_cardinality: None,
        })
        .unwrap();
        b.push_class(ClassDef {
            name: "Edge".into(),
            kind: ClassKind::Edge,
            parent: Some(ENTITY),
            own_fields: vec![],
            hint_cardinality: None,
        })
        .unwrap();
        b
    }

    fn push_class(&mut self, def: ClassDef) -> Result<ClassId> {
        if self.by_name.contains_key(&def.name) {
            return Err(SchemaError::DuplicateClass(def.name));
        }
        // Reject duplicate field names along the inheritance chain.
        let mut seen: Vec<&str> = Vec::new();
        let mut cur = def.parent;
        while let Some(p) = cur {
            let pd = &self.classes[p.0 as usize];
            seen.extend(pd.own_fields.iter().map(|f| f.name.as_str()));
            cur = pd.parent;
        }
        for f in &def.own_fields {
            if seen.contains(&f.name.as_str()) || def.own_fields.iter().filter(|g| g.name == f.name).count() > 1 {
                return Err(SchemaError::DuplicateField { class: def.name.clone(), field: f.name.clone() });
            }
        }
        let id = ClassId(self.classes.len() as u32);
        self.by_name.insert(def.name.clone(), id);
        self.classes.push(def);
        Ok(id)
    }

    /// Register a composite data type.
    pub fn data_type(
        &mut self,
        name: impl Into<String>,
        parent: Option<DataTypeId>,
        fields: Vec<FieldDef>,
    ) -> Result<DataTypeId> {
        self.data_types.register(DataTypeDef { name: name.into(), parent, own_fields: fields })
    }

    /// Look up a registered data type by name.
    pub fn data_type_by_name(&self, name: &str) -> Option<DataTypeId> {
        self.data_types.by_name(name)
    }

    /// Register a node class derived from `parent` (use [`NODE`] for direct
    /// children of the root).
    pub fn node_class(&mut self, name: impl Into<String>, parent: ClassId, fields: Vec<FieldDef>) -> Result<ClassId> {
        let name = name.into();
        if parent != NODE {
            let p = &self.classes[parent.0 as usize];
            if p.kind != ClassKind::Node || parent == ENTITY {
                return Err(SchemaError::KindMismatch { class: name, expected: "Node" });
            }
        }
        self.push_class(ClassDef {
            name,
            kind: ClassKind::Node,
            parent: Some(parent),
            own_fields: fields,
            hint_cardinality: None,
        })
    }

    /// Register an edge class derived from `parent` (use [`EDGE`] for direct
    /// children of the root).
    pub fn edge_class(&mut self, name: impl Into<String>, parent: ClassId, fields: Vec<FieldDef>) -> Result<ClassId> {
        let name = name.into();
        if parent != EDGE {
            let p = &self.classes[parent.0 as usize];
            if p.kind != ClassKind::Edge || parent == ENTITY {
                return Err(SchemaError::KindMismatch { class: name, expected: "Edge" });
            }
        }
        self.push_class(ClassDef {
            name,
            kind: ClassKind::Edge,
            parent: Some(parent),
            own_fields: fields,
            hint_cardinality: None,
        })
    }

    /// Attach a cardinality hint to a class (consulted by the optimizer when
    /// no database statistics are available).
    pub fn hint_cardinality(&mut self, class: ClassId, cardinality: u64) {
        self.classes[class.0 as usize].hint_cardinality = Some(cardinality);
    }

    /// Declare that `edge` (and subclasses) may connect `from` to `to`.
    pub fn allow(&mut self, edge: ClassId, from: ClassId, to: ClassId) -> Result<()> {
        let (e, f, t) =
            (self.classes[edge.0 as usize].kind, self.classes[from.0 as usize].kind, self.classes[to.0 as usize].kind);
        if e != ClassKind::Edge || edge == ENTITY {
            return Err(SchemaError::BadEdgeRule("edge position must be an edge class".into()));
        }
        if f != ClassKind::Node || t != ClassKind::Node || from == ENTITY || to == ENTITY {
            return Err(SchemaError::BadEdgeRule("endpoints must be node classes".into()));
        }
        self.edge_rules.push(EdgeRule { edge, from, to });
        Ok(())
    }

    /// Look up an already-registered class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.by_name.get(name).copied()
    }

    /// Finalize: precompute layouts, children lists, and DFS intervals.
    pub fn finish(self) -> Schema {
        let n = self.classes.len();
        let mut children: Vec<Vec<ClassId>> = vec![Vec::new(); n];
        for (i, c) in self.classes.iter().enumerate() {
            if let Some(p) = c.parent {
                children[p.0 as usize].push(ClassId(i as u32));
            }
        }
        let mut layouts: Vec<Vec<FieldDef>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut chain = Vec::new();
            let mut cur = Some(ClassId(i as u32));
            while let Some(c) = cur {
                chain.push(c);
                cur = self.classes[c.0 as usize].parent;
            }
            let mut layout = Vec::new();
            for c in chain.iter().rev() {
                layout.extend(self.classes[c.0 as usize].own_fields.iter().cloned());
            }
            layouts.push(layout);
        }
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut clock = 0u32;
        // Iterative DFS from Entity.
        let mut stack: Vec<(ClassId, bool)> = vec![(ENTITY, false)];
        while let Some((c, done)) = stack.pop() {
            if done {
                tout[c.0 as usize] = clock;
                continue;
            }
            clock += 1;
            tin[c.0 as usize] = clock;
            stack.push((c, true));
            for &ch in &children[c.0 as usize] {
                stack.push((ch, false));
            }
        }
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Schema {
            classes: self.classes,
            by_name: self.by_name,
            data_types: self.data_types,
            edge_rules: self.edge_rules,
            layouts,
            children,
            tin,
            tout,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FieldType;

    /// The paper's Fig. 3 style schema fragment.
    fn sample() -> Schema {
        let mut b = SchemaBuilder::new();
        let container = b.node_class("Container", NODE, vec![FieldDef::new("status", FieldType::Str)]).unwrap();
        let vm = b.node_class("VM", container, vec![FieldDef::new("vm_id", FieldType::Int).unique()]).unwrap();
        let _vmware = b.node_class("VMWare", vm, vec![]).unwrap();
        let _onmetal = b.node_class("OnMetal", vm, vec![]).unwrap();
        let _docker = b.node_class("Docker", container, vec![]).unwrap();
        let host = b.node_class("Host", NODE, vec![FieldDef::new("host_id", FieldType::Int).unique()]).unwrap();
        let vertical = b.edge_class("Vertical", EDGE, vec![]).unwrap();
        let hosted = b.edge_class("HostedOn", vertical, vec![]).unwrap();
        let connected = b.edge_class("ConnectedTo", EDGE, vec![]).unwrap();
        let _cts = b
            .edge_class(
                "ServerSwitch",
                connected,
                vec![
                    FieldDef::new("server_interface", FieldType::Str),
                    FieldDef::new("switch_interface", FieldType::Str),
                ],
            )
            .unwrap();
        b.allow(hosted, vm, host).unwrap();
        b.finish()
    }

    #[test]
    fn subclass_and_lca() {
        let s = sample();
        let vm = s.class_by_name("VM").unwrap();
        let vmware = s.class_by_name("VMWare").unwrap();
        let docker = s.class_by_name("Docker").unwrap();
        let container = s.class_by_name("Container").unwrap();
        assert!(s.is_subclass(vmware, vm));
        assert!(s.is_subclass(vm, container));
        assert!(!s.is_subclass(docker, vm));
        assert!(s.is_subclass(vm, NODE));
        assert_eq!(s.lca(vmware, docker), container);
        assert_eq!(s.lca(vm, s.class_by_name("Host").unwrap()), NODE);
    }

    #[test]
    fn qualified_name_resolution() {
        let s = sample();
        let vmware = s.class_by_name("VMWare").unwrap();
        assert_eq!(s.class_by_name("VM:VMWare"), Some(vmware));
        assert_eq!(s.class_by_name("Node:Container:VM:VMWare"), Some(vmware));
        // Wrong chain rejected.
        assert_eq!(s.class_by_name("Host:VMWare"), None);
        assert_eq!(s.path_name(vmware), "Node:Container:VM:VMWare");
    }

    #[test]
    fn field_inheritance_layout() {
        let s = sample();
        let vmware = s.class_by_name("VMWare").unwrap();
        let fields = s.all_fields(vmware);
        assert_eq!(fields.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(), vec!["status", "vm_id"]);
        let (idx, fd) = s.resolve_field(vmware, "vm_id").unwrap();
        assert_eq!(idx, 1);
        assert!(fd.unique);
        // Atom `VM(...)` may not reference a Docker-only field and vice versa.
        assert!(s.resolve_field(s.class_by_name("VM").unwrap(), "nonexistent").is_none());
    }

    #[test]
    fn edge_rules_respect_inheritance() {
        let s = sample();
        let hosted = s.class_by_name("HostedOn").unwrap();
        let vm = s.class_by_name("VM").unwrap();
        let vmware = s.class_by_name("VMWare").unwrap();
        let host = s.class_by_name("Host").unwrap();
        let docker = s.class_by_name("Docker").unwrap();
        assert!(s.edge_allowed(hosted, vm, host));
        assert!(s.edge_allowed(hosted, vmware, host)); // subclass source OK
        assert!(!s.edge_allowed(hosted, docker, host)); // Docker not a VM
        assert!(!s.edge_allowed(hosted, host, vm)); // direction matters
                                                    // The paper: "one cannot directly link a VNF to a physical_server".
        let vertical = s.class_by_name("Vertical").unwrap();
        assert!(!s.edge_allowed(vertical, vm, host)); // rule is on HostedOn, not Vertical
    }

    #[test]
    fn subtree_ranges_are_the_descendants() {
        let s = sample();
        for a in 0..s.num_classes() as u32 {
            let a = ClassId(a);
            let mut want: Vec<usize> = s.descendants(a).into_iter().map(|c| s.preorder(c)).collect();
            want.sort_unstable();
            assert_eq!(want, s.subtree(a).collect::<Vec<_>>(), "{}", s.class(a).name);
        }
        assert_eq!(s.preorder(ENTITY), 0);
        assert_eq!(s.subtree(ENTITY).len(), s.num_classes());
    }

    #[test]
    fn record_validation() {
        let s = sample();
        let vm = s.class_by_name("VM").unwrap();
        s.validate_record(vm, &[Value::Str("Green".into()), Value::Int(55)]).unwrap();
        assert!(s.validate_record(vm, &[Value::Int(55)]).is_err()); // arity
        assert!(s.validate_record(vm, &[Value::Int(1), Value::Int(55)]).is_err()); // type
        assert!(s.validate_record(vm, &[Value::Null, Value::Int(55)]).is_err());
        // required
    }

    #[test]
    fn node_edge_kind_separation_enforced() {
        let mut b = SchemaBuilder::new();
        let n = b.node_class("N", NODE, vec![]).unwrap();
        assert!(b.edge_class("E", n, vec![]).is_err());
        assert!(b.node_class("N", NODE, vec![]).is_err()); // duplicate
    }

    #[test]
    fn descendants_include_self() {
        let s = sample();
        let container = s.class_by_name("Container").unwrap();
        let d = s.descendants(container);
        assert_eq!(d.len(), 5); // Container, VM, VMWare, OnMetal, Docker
        assert!(d.contains(&container));
    }
}
