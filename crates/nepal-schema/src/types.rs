//! Field types, field definitions, and composite data types.
//!
//! Mirrors the `data_types` section of the TOSCA-derived Nepal schema
//! language (§3.2.1): composite data types with named fields, container
//! types (`list`, `set`, `map`), and inheritance among data types. The
//! composition DAG must be acyclic, which [`crate::schema::SchemaBuilder`]
//! enforces by construction order.

use std::fmt;

use crate::error::{Result, SchemaError};
use crate::value::Value;

/// Identifier of a composite data type within a schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataTypeId(pub u32);

/// The declared type of a field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldType {
    Bool,
    Int,
    Float,
    Str,
    /// Timestamp (transaction or application time).
    Ts,
    /// IPv4/IPv6 address.
    Ip,
    /// `list<T>` container.
    List(Box<FieldType>),
    /// `set<T>` container.
    Set(Box<FieldType>),
    /// `map<K, V>` container.
    Map(Box<FieldType>, Box<FieldType>),
    /// A named composite data type.
    Data(DataTypeId),
}

impl fmt::Display for FieldType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldType::Bool => write!(f, "bool"),
            FieldType::Int => write!(f, "int"),
            FieldType::Float => write!(f, "float"),
            FieldType::Str => write!(f, "str"),
            FieldType::Ts => write!(f, "ts"),
            FieldType::Ip => write!(f, "ip"),
            FieldType::List(t) => write!(f, "list<{t}>"),
            FieldType::Set(t) => write!(f, "set<{t}>"),
            FieldType::Map(k, v) => write!(f, "map<{k}, {v}>"),
            FieldType::Data(id) => write!(f, "data#{}", id.0),
        }
    }
}

/// Definition of one field on a class or data type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name, unique along the inheritance chain of its owner.
    pub name: String,
    /// Declared type.
    pub ty: FieldType,
    /// Required fields must be present (non-null) in every record.
    pub required: bool,
    /// Unique fields are enforced per *exact* class extent and indexed.
    pub unique: bool,
}

impl FieldDef {
    /// A required, non-unique field.
    pub fn new(name: impl Into<String>, ty: FieldType) -> Self {
        FieldDef { name: name.into(), ty, required: true, unique: false }
    }

    /// Mark the field as a unique key.
    pub fn unique(mut self) -> Self {
        self.unique = true;
        self
    }

    /// Mark the field as optional (nullable).
    pub fn optional(mut self) -> Self {
        self.required = false;
        self
    }
}

/// A named composite data type (`data_types` in TOSCA terms).
#[derive(Debug, Clone)]
pub struct DataTypeDef {
    pub name: String,
    /// Optional parent data type; fields of the parent are inherited and
    /// laid out before this type's own fields.
    pub parent: Option<DataTypeId>,
    /// Fields declared directly on this data type.
    pub own_fields: Vec<FieldDef>,
}

/// Registry of data types; owned by a [`crate::schema::Schema`].
#[derive(Debug, Clone, Default)]
pub struct DataTypeRegistry {
    defs: Vec<DataTypeDef>,
}

impl DataTypeRegistry {
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    pub fn get(&self, id: DataTypeId) -> &DataTypeDef {
        &self.defs[id.0 as usize]
    }

    pub fn by_name(&self, name: &str) -> Option<DataTypeId> {
        self.defs.iter().position(|d| d.name == name).map(|i| DataTypeId(i as u32))
    }

    /// Register a new data type. Because a data type may only reference
    /// already-registered types, the composition DAG is acyclic by
    /// construction.
    pub fn register(&mut self, def: DataTypeDef) -> Result<DataTypeId> {
        if self.by_name(&def.name).is_some() {
            return Err(SchemaError::DuplicateDataType(def.name));
        }
        self.defs.push(def);
        Ok(DataTypeId(self.defs.len() as u32 - 1))
    }

    /// Full field layout of a data type: ancestor fields first.
    pub fn all_fields(&self, id: DataTypeId) -> Vec<&FieldDef> {
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            chain.push(c);
            cur = self.get(c).parent;
        }
        let mut out = Vec::new();
        for c in chain.iter().rev() {
            out.extend(self.get(*c).own_fields.iter());
        }
        out
    }

    /// Validate a [`Value`] against a [`FieldType`].
    pub fn validate_value(&self, ty: &FieldType, v: &Value) -> Result<()> {
        let err = |expected: String| {
            Err(SchemaError::TypeMismatch { field: String::new(), expected, got: v.kind_name().to_string() })
        };
        match (ty, v) {
            (_, Value::Null) => Ok(()), // nullability checked at record level
            (FieldType::Bool, Value::Bool(_))
            | (FieldType::Int, Value::Int(_))
            | (FieldType::Float, Value::Float(_))
            | (FieldType::Str, Value::Str(_))
            | (FieldType::Ts, Value::Ts(_))
            | (FieldType::Ip, Value::Ip(_)) => Ok(()),
            (FieldType::Float, Value::Int(_)) => Ok(()), // implicit widening
            (FieldType::List(t), Value::List(items)) | (FieldType::Set(t), Value::Set(items)) => {
                for it in items {
                    self.validate_value(t, it)?;
                }
                Ok(())
            }
            (FieldType::Map(kt, vt), Value::Map(m)) => {
                for (k, val) in m {
                    self.validate_value(kt, k)?;
                    self.validate_value(vt, val)?;
                }
                Ok(())
            }
            (FieldType::Data(id), Value::Composite(fields)) => {
                let defs = self.all_fields(*id);
                if defs.len() != fields.len() {
                    return err(format!("composite `{}` with {} fields", self.get(*id).name, defs.len()));
                }
                for (fd, fv) in defs.iter().zip(fields) {
                    self.validate_value(&fd.ty, fv).map_err(|e| match e {
                        SchemaError::TypeMismatch { expected, got, .. } => {
                            SchemaError::TypeMismatch { field: fd.name.clone(), expected, got }
                        }
                        other => other,
                    })?;
                }
                Ok(())
            }
            _ => err(ty.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with_routing_entry() -> (DataTypeRegistry, DataTypeId) {
        let mut reg = DataTypeRegistry::default();
        let id = reg
            .register(DataTypeDef {
                name: "routingTableEntry".into(),
                parent: None,
                own_fields: vec![
                    FieldDef::new("address", FieldType::Ip),
                    FieldDef::new("mask", FieldType::Int),
                    FieldDef::new("interface", FieldType::Str),
                ],
            })
            .unwrap();
        (reg, id)
    }

    #[test]
    fn paper_routing_table_entry_validates() {
        let (reg, id) = reg_with_routing_entry();
        let entry =
            Value::Composite(vec![Value::Ip("10.0.0.1".parse().unwrap()), Value::Int(24), Value::Str("eth0".into())]);
        reg.validate_value(&FieldType::Data(id), &entry).unwrap();
        // List[routingTableEntry] routingTable — the paper's example.
        let table = Value::List(vec![entry]);
        reg.validate_value(&FieldType::List(Box::new(FieldType::Data(id))), &table).unwrap();
    }

    #[test]
    fn wrong_arity_composite_rejected() {
        let (reg, id) = reg_with_routing_entry();
        let bad = Value::Composite(vec![Value::Int(24)]);
        assert!(reg.validate_value(&FieldType::Data(id), &bad).is_err());
    }

    #[test]
    fn data_type_inheritance_extends_layout() {
        let mut reg = DataTypeRegistry::default();
        let base = reg
            .register(DataTypeDef {
                name: "base".into(),
                parent: None,
                own_fields: vec![FieldDef::new("a", FieldType::Int)],
            })
            .unwrap();
        let child = reg
            .register(DataTypeDef {
                name: "child".into(),
                parent: Some(base),
                own_fields: vec![FieldDef::new("b", FieldType::Str)],
            })
            .unwrap();
        let fields = reg.all_fields(child);
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].name, "a");
        assert_eq!(fields[1].name, "b");
    }

    #[test]
    fn duplicate_data_type_rejected() {
        let mut reg = DataTypeRegistry::default();
        let def = DataTypeDef { name: "x".into(), parent: None, own_fields: vec![] };
        reg.register(def.clone()).unwrap();
        assert!(matches!(reg.register(def), Err(SchemaError::DuplicateDataType(_))));
    }

    #[test]
    fn container_element_types_checked() {
        let reg = DataTypeRegistry::default();
        let ty = FieldType::List(Box::new(FieldType::Int));
        assert!(reg.validate_value(&ty, &Value::List(vec![Value::Str("no".into())])).is_err());
        assert!(reg.validate_value(&ty, &Value::List(vec![Value::Int(1), Value::Int(2)])).is_ok());
    }
}
