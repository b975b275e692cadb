//! Binding and normalization of RPEs against a schema.
//!
//! Binding resolves every atom's class name to a [`ClassId`], checks that
//! predicate fields are visible on the named concept (strong typing of
//! atoms, §3.3), and coerces literals to the declared field types
//! (timestamps and IP addresses arrive as quoted strings).
//!
//! Normalization expands bounded repetitions into explicit alternations of
//! chains — `[r]{1,3}` becomes `r | r->r | r->r->r` — which is exactly the
//! paper's definition of repetition satisfaction, preserves the 4-way
//! concatenation semantics between copies, and turns every RPE into an
//! acyclic expression whose NFA is a DAG (RPEs are length-limited by
//! definition).

use std::cmp::Ordering;

use nepal_schema::{parse_ts, ClassId, ClassKind, FieldType, Schema, Value};

use crate::ast::{Atom, CmpOp, Rpe};
use crate::error::{Result, RpeError};

/// Cap on the number of alternation branches produced by normalization.
const MAX_EXPANSION: usize = 4096;
/// Cap on repetition upper bounds.
pub const MAX_REPETITION: u32 = 32;

/// A bound predicate: resolved field index and coerced literal.
///
/// `sub_path` supports dotted access into composite `data_type` fields
/// (e.g. `VirtualPort(spec.speed_gbps>=10)`): each entry is a positional
/// index into the next level's composite layout. (The paper lists "full
/// query access to structured data" as still under development, §5; this
/// implements the composite-field part of it.)
#[derive(Debug, Clone, PartialEq)]
pub struct BoundPred {
    pub field_idx: usize,
    pub field_name: String,
    pub sub_path: Vec<usize>,
    pub op: CmpOp,
    pub value: Value,
}

impl BoundPred {
    /// Evaluate the predicate against a record.
    pub fn eval(&self, fields: &[Value]) -> bool {
        let mut v = match fields.get(self.field_idx) {
            Some(v) => v,
            None => return false,
        };
        // Walk into composite data-type fields.
        for &idx in &self.sub_path {
            v = match v {
                Value::Composite(inner) => match inner.get(idx) {
                    Some(x) => x,
                    None => return false,
                },
                _ => return false,
            };
        }
        if v.is_null() {
            return false;
        }
        match self.op {
            CmpOp::Contains => match v {
                Value::Str(s) => match &self.value {
                    Value::Str(sub) => s.contains(sub.as_str()),
                    _ => false,
                },
                Value::List(items) | Value::Set(items) => items.contains(&self.value),
                Value::Map(m) => m.contains_key(&self.value),
                _ => false,
            },
            op => match v.query_cmp(&self.value) {
                None => false,
                Some(ord) => match op {
                    CmpOp::Eq => ord == Ordering::Equal,
                    CmpOp::Ne => ord != Ordering::Equal,
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Le => ord != Ordering::Greater,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Ge => ord != Ordering::Less,
                    CmpOp::Contains => unreachable!(),
                },
            },
        }
    }
}

/// A bound atom: resolved class, kind, and predicates. Each distinct atom
/// occurrence in the source RPE gets one `BoundAtom`, identified by its
/// index (repetition expansion shares occurrences across copies, which is
/// what lets anchor selection treat all copies of an atom as one anchor).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundAtom {
    pub class: ClassId,
    pub class_name: String,
    pub is_node: bool,
    pub preds: Vec<BoundPred>,
    /// Source text of the atom, for plan display.
    pub display: String,
}

impl BoundAtom {
    /// Do the given record fields satisfy every predicate?
    pub fn matches_fields(&self, fields: &[Value]) -> bool {
        self.preds.iter().all(|p| p.eval(fields))
    }

    /// Does the atom carry an equality predicate on a unique field?
    /// (The classic high-selectivity anchor, e.g. `VM(id=55)`.)
    pub fn unique_eq_pred(&self, schema: &Schema) -> Option<(usize, &Value)> {
        self.preds.iter().find_map(|p| {
            if p.op != CmpOp::Eq || !p.sub_path.is_empty() {
                return None;
            }
            let (_, fd) = schema.resolve_field(self.class, &p.field_name)?;
            fd.unique.then_some((p.field_idx, &p.value))
        })
    }
}

/// Repetition-free, empty-free normalized RPE over bound-atom indexes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Norm {
    Atom(u32),
    Seq(Vec<Norm>),
    Alt(Vec<Norm>),
}

impl Norm {
    fn branch_count(&self) -> usize {
        match self {
            Norm::Atom(_) => 1,
            Norm::Seq(parts) => parts.iter().map(|p| p.branch_count()).product(),
            Norm::Alt(parts) => parts.iter().map(|p| p.branch_count()).sum(),
        }
    }
}

/// The result of binding + normalization.
#[derive(Debug, Clone)]
pub struct BoundRpe {
    pub atoms: Vec<BoundAtom>,
    pub norm: Norm,
}

/// Intermediate form during expansion: may contain Empty.
#[derive(Debug, Clone)]
enum Work {
    Atom(u32),
    Seq(Vec<Work>),
    Alt(Vec<Work>),
    Empty,
}

fn coerce_literal(ty: &FieldType, v: Value) -> Option<Value> {
    match (ty, &v) {
        (FieldType::Ts, Value::Str(s)) => parse_ts(s).map(Value::Ts),
        (FieldType::Ip, Value::Str(s)) => s.parse().ok().map(Value::Ip),
        (FieldType::Float, Value::Int(i)) => Some(Value::Float(*i as f64)),
        _ => Some(v),
    }
}

fn literal_compatible(ty: &FieldType, v: &Value, op: CmpOp) -> bool {
    if op == CmpOp::Contains {
        // `contains` compares against element/key types; accept any scalar.
        return true;
    }
    matches!(
        (ty, v),
        (FieldType::Bool, Value::Bool(_))
            | (FieldType::Int, Value::Int(_))
            | (FieldType::Float, Value::Float(_))
            | (FieldType::Float, Value::Int(_))
            | (FieldType::Int, Value::Float(_))
            | (FieldType::Str, Value::Str(_))
            | (FieldType::Ts, Value::Ts(_))
            | (FieldType::Ip, Value::Ip(_))
    )
}

fn bind_atom(schema: &Schema, atom: &Atom) -> Result<BoundAtom> {
    let class = schema.class_by_name(&atom.class).ok_or_else(|| RpeError::UnknownClass(atom.class.clone()))?;
    let is_node = schema.kind(class) == ClassKind::Node;
    let mut preds = Vec::with_capacity(atom.preds.len());
    for p in &atom.preds {
        let mut segments = p.field.split('.');
        let base = segments.next().expect("split yields at least one segment");
        let (idx, fd) = schema
            .resolve_field(class, base)
            .ok_or_else(|| RpeError::UnknownField { class: atom.class.clone(), field: p.field.clone() })?;
        // Dotted segments walk through composite data types.
        let mut sub_path = Vec::new();
        let mut ty = fd.ty.clone();
        for seg in segments {
            let dt = match &ty {
                FieldType::Data(id) => *id,
                other => {
                    return Err(RpeError::PredicateType {
                        class: atom.class.clone(),
                        field: p.field.clone(),
                        msg: format!("`{seg}` applied to non-composite type {other}"),
                    })
                }
            };
            let layout = schema.data_types().all_fields(dt);
            let pos = layout
                .iter()
                .position(|f| f.name == seg)
                .ok_or_else(|| RpeError::UnknownField { class: atom.class.clone(), field: p.field.clone() })?;
            ty = layout[pos].ty.clone();
            sub_path.push(pos);
        }
        let value = coerce_literal(&ty, p.value.clone()).ok_or_else(|| RpeError::PredicateType {
            class: atom.class.clone(),
            field: p.field.clone(),
            msg: format!("cannot coerce {} to {}", p.value, ty),
        })?;
        if !literal_compatible(&ty, &value, p.op) {
            return Err(RpeError::PredicateType {
                class: atom.class.clone(),
                field: p.field.clone(),
                msg: format!("{} is not comparable to {}", value.kind_name(), ty),
            });
        }
        preds.push(BoundPred { field_idx: idx, field_name: p.field.clone(), sub_path, op: p.op, value });
    }
    Ok(BoundAtom { class, class_name: atom.class.clone(), is_node, preds, display: atom.to_string() })
}

fn lower(schema: &Schema, rpe: &Rpe, atoms: &mut Vec<BoundAtom>) -> Result<Work> {
    Ok(match rpe {
        Rpe::Atom(a) => {
            let bound = bind_atom(schema, a)?;
            atoms.push(bound);
            Work::Atom(atoms.len() as u32 - 1)
        }
        Rpe::Seq(parts) => Work::Seq(parts.iter().map(|p| lower(schema, p, atoms)).collect::<Result<Vec<_>>>()?),
        Rpe::Alt(parts) => Work::Alt(parts.iter().map(|p| lower(schema, p, atoms)).collect::<Result<Vec<_>>>()?),
        Rpe::Rep(inner, min, max) => {
            if *min > *max || *max == 0 || *max > MAX_REPETITION {
                return Err(RpeError::BadRepetition { min: *min, max: *max });
            }
            let body = lower(schema, inner, atoms)?;
            // [r]{i,j} = chain_i | chain_{i+1} | … | chain_j, chain_0 = ε.
            let mut alts = Vec::new();
            for k in *min..=*max {
                if k == 0 {
                    alts.push(Work::Empty);
                } else {
                    alts.push(Work::Seq(vec![body.clone(); k as usize]));
                }
            }
            if alts.len() == 1 {
                alts.pop().unwrap()
            } else {
                Work::Alt(alts)
            }
        }
    })
}

/// Remove `Empty` by distribution. Returns the non-empty residue (if the
/// expression can match something non-empty) and whether it can match the
/// empty pathway.
fn elim_empty(w: Work) -> (Option<Norm>, bool) {
    match w {
        Work::Empty => (None, true),
        Work::Atom(a) => (Some(Norm::Atom(a)), false),
        Work::Alt(parts) => {
            let mut non_empty = Vec::new();
            let mut nullable = false;
            for p in parts {
                let (res, n) = elim_empty(p);
                nullable |= n;
                if let Some(r) = res {
                    non_empty.push(r);
                }
            }
            match non_empty.len() {
                0 => (None, nullable),
                1 => (Some(non_empty.pop().unwrap()), nullable),
                _ => (Some(Norm::Alt(non_empty)), nullable),
            }
        }
        Work::Seq(parts) => {
            // Each member is Required(r), Optional(r), or vanishes.
            // Distribute optionals: Seq(A, Opt(B), C) = A->B->C | A->C.
            // This is necessary (not just convenient): an elided member must
            // not leave its concatenation skip-transitions behind.
            let mut members: Vec<(Option<Norm>, bool)> = Vec::new();
            for p in parts {
                members.push(elim_empty(p));
            }
            let mut variants: Vec<Vec<Norm>> = vec![Vec::new()];
            let mut seq_nullable = true;
            for (res, nullable) in members {
                seq_nullable &= nullable;
                match (res, nullable) {
                    (None, true) => {} // vanishes entirely
                    (None, false) => unreachable!("member matches nothing"),
                    (Some(r), false) => {
                        for v in &mut variants {
                            v.push(r.clone());
                        }
                    }
                    (Some(r), true) => {
                        let mut with: Vec<Vec<Norm>> = variants.clone();
                        for v in &mut with {
                            v.push(r.clone());
                        }
                        variants.extend(with);
                    }
                }
            }
            let mut alts: Vec<Norm> = Vec::new();
            let mut nullable = false;
            for v in variants {
                match v.len() {
                    0 => nullable = true,
                    1 => alts.push(v.into_iter().next().unwrap()),
                    _ => alts.push(Norm::Seq(v)),
                }
            }
            nullable |= seq_nullable && alts.is_empty();
            match alts.len() {
                0 => (None, nullable),
                1 => (Some(alts.pop().unwrap()), nullable),
                _ => (Some(Norm::Alt(alts)), nullable),
            }
        }
    }
}

/// Bind an RPE against a schema and normalize it.
///
/// Fails with [`RpeError::Nullable`] if the expression can match the empty
/// pathway — such RPEs cannot be anchored (§3.3: "the empty path satisfies
/// the RPE … our implementation rejects" them).
pub fn bind(schema: &Schema, rpe: &Rpe) -> Result<BoundRpe> {
    let mut atoms = Vec::new();
    let work = lower(schema, rpe, &mut atoms)?;
    let (norm, nullable) = elim_empty(work);
    if nullable {
        return Err(RpeError::Nullable);
    }
    let norm = norm.ok_or(RpeError::Nullable)?;
    let branches = norm.branch_count();
    if branches > MAX_EXPANSION {
        return Err(RpeError::TooLarge(branches));
    }
    Ok(BoundRpe { atoms, norm })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rpe;
    use nepal_schema::dsl::parse_schema;

    fn schema() -> Schema {
        parse_schema(
            r#"
            node VM { vm_id: int unique, status: str, boot_ts: ts optional, addr: ip optional }
            node Host { host_id: int unique }
            edge HostedOn { }
            edge Vertical { }
            "#,
        )
        .unwrap()
    }

    fn bind_src(src: &str) -> Result<BoundRpe> {
        bind(&schema(), &parse_rpe(src).unwrap())
    }

    #[test]
    fn binds_and_counts_occurrences() {
        let b = bind_src("VM(status='Green')->[HostedOn()]{1,3}->Host(host_id=7)").unwrap();
        // Repetition copies share ONE atom occurrence.
        assert_eq!(b.atoms.len(), 3);
        assert!(b.atoms[0].is_node);
        assert!(!b.atoms[1].is_node);
    }

    #[test]
    fn rep_expansion_is_alternation_of_chains() {
        let b = bind_src("[HostedOn()]{1,2}").unwrap();
        match &b.norm {
            Norm::Alt(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[0], Norm::Atom(0)));
                assert!(matches!(&parts[1], Norm::Seq(s) if s.len() == 2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_min_inside_seq_distributes() {
        let b = bind_src("VM()->[HostedOn()]{0,1}->Host()").unwrap();
        // Variants: VM->HostedOn->Host and VM->Host.
        match &b.norm {
            Norm::Alt(parts) => assert_eq!(parts.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fully_nullable_rejected() {
        // The paper's example: [VNF()]{0,4}->[Vertical()]{0,4} has no anchor.
        assert!(matches!(bind_src("[VM()]{0,4}->[Vertical()]{0,4}"), Err(RpeError::Nullable)));
        assert!(matches!(bind_src("[VM()]{0,3}"), Err(RpeError::Nullable)));
    }

    #[test]
    fn unknown_class_and_field_rejected() {
        assert!(matches!(bind_src("Nope()"), Err(RpeError::UnknownClass(_))));
        assert!(matches!(bind_src("VM(nonfield=1)"), Err(RpeError::UnknownField { .. })));
    }

    #[test]
    fn timestamp_and_ip_literals_coerced() {
        let b = bind_src("VM(boot_ts>='2017-02-15 10:00', addr='10.0.0.1')").unwrap();
        assert!(matches!(b.atoms[0].preds[0].value, Value::Ts(_)));
        assert!(matches!(b.atoms[0].preds[1].value, Value::Ip(_)));
        // Type mismatch detected.
        assert!(matches!(bind_src("VM(status=5)"), Err(RpeError::PredicateType { .. })));
    }

    #[test]
    fn unique_eq_detection() {
        let s = schema();
        let b = bind(&s, &parse_rpe("VM(vm_id=55)").unwrap()).unwrap();
        assert!(b.atoms[0].unique_eq_pred(&s).is_some());
        let b = bind(&s, &parse_rpe("VM(vm_id>55)").unwrap()).unwrap();
        assert!(b.atoms[0].unique_eq_pred(&s).is_none());
        let b = bind(&s, &parse_rpe("VM(status='x')").unwrap()).unwrap();
        assert!(b.atoms[0].unique_eq_pred(&s).is_none());
    }

    #[test]
    fn predicate_eval_semantics() {
        let p = BoundPred {
            field_idx: 0,
            field_name: "x".into(),
            sub_path: Vec::new(),
            op: CmpOp::Ge,
            value: Value::Int(10),
        };
        assert!(p.eval(&[Value::Int(10)]));
        assert!(!p.eval(&[Value::Int(9)]));
        assert!(!p.eval(&[Value::Null]));
        let c = BoundPred {
            field_idx: 0,
            field_name: "x".into(),
            sub_path: Vec::new(),
            op: CmpOp::Contains,
            value: Value::Int(2),
        };
        assert!(c.eval(&[Value::List(vec![Value::Int(1), Value::Int(2)])]));
        assert!(!c.eval(&[Value::List(vec![Value::Int(3)])]));
    }
}
