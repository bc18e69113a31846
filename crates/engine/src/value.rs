//! Dynamically-typed tuple values, rows and schemas.
//!
//! Queries in quill operate on [`Row`]s — flat tuples of [`Value`]s described
//! by a [`Schema`]. A dynamic representation (rather than generics) keeps
//! pipelines composable at runtime, which the benchmark harness relies on to
//! construct queries from experiment specifications.

use crate::error::{EngineError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The type of a field in a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FieldType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for FieldType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldType::Int => write!(f, "int"),
            FieldType::Float => write!(f, "float"),
            FieldType::Str => write!(f, "str"),
            FieldType::Bool => write!(f, "bool"),
        }
    }
}

/// A single dynamically-typed value.
///
/// `Null` is the absence of a value (e.g. a failed projection); aggregates
/// skip nulls rather than poisoning the result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Absent value.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string (cheaply cloneable).
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// The [`FieldType`] of this value, or `None` for `Null`.
    pub fn field_type(&self) -> Option<FieldType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(FieldType::Int),
            Value::Float(_) => Some(FieldType::Float),
            Value::Str(_) => Some(FieldType::Str),
            Value::Bool(_) => Some(FieldType::Bool),
        }
    }

    /// Whether the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: ints and floats widen to `f64`; everything else is
    /// `None`. This is the view aggregation functions use.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (exact; floats are not silently truncated).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A total ordering usable for grouping keys and min/max aggregates.
    ///
    /// Orders by variant first (`Null < Bool < Int/Float < Str`), with ints
    /// and floats compared numerically against each other and NaN sorted
    /// greatest among numbers.
    pub fn total_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

/// A grouping key: a `Value` wrapper that is `Eq + Hash + Ord` using the
/// total ordering (floats hashed by bit pattern).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Key(pub Value);

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
/// A value seen as a [`Key`]. `Key: Borrow<dyn KeyView>`, and `dyn KeyView`
/// orders, compares and hashes as `Key` does, so a map or set of `Key`s —
/// ordered or hashed — is searched with a row's own `&Value`: no `Key` has
/// to be cloned into existence for a lookup. `&dyn KeyView` is itself an
/// `Ord` element for sets of borrowed values.
pub trait KeyView {
    /// The value being ordered.
    fn value(&self) -> &Value;
}

impl KeyView for Value {
    fn value(&self) -> &Value {
        self
    }
}

impl KeyView for Key {
    fn value(&self) -> &Value {
        &self.0
    }
}

impl<'a> std::borrow::Borrow<dyn KeyView + 'a> for Key {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for dyn KeyView + '_ {}
impl PartialOrd for dyn KeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for dyn KeyView + '_ {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.value().total_cmp(other.value())
    }
}

/// Hash a [`Value`] consistently with [`Key`]'s equality (`total_cmp`):
/// ints hash as their `f64` bit pattern so `Int(3)` and `Float(3.0)` — equal
/// keys — collide, and floats hash by bits. Borrows the value, so hot paths
/// (shard routing) hash without cloning into a [`Key`] first.
pub fn hash_value<H: std::hash::Hasher>(v: &Value, state: &mut H) {
    use std::hash::Hash;
    match v {
        Value::Null => 0u8.hash(state),
        Value::Bool(b) => {
            1u8.hash(state);
            b.hash(state);
        }
        Value::Int(i) => {
            2u8.hash(state);
            (*i as f64).to_bits().hash(state);
        }
        Value::Float(f) => {
            2u8.hash(state);
            f.to_bits().hash(state);
        }
        Value::Str(s) => {
            3u8.hash(state);
            s.hash(state);
        }
    }
}

impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        hash_value(&self.0, state);
    }
}

impl std::hash::Hash for dyn KeyView + '_ {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        hash_value(self.value(), state);
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A named, typed field of a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Field name, unique within the schema.
    pub name: String,
    /// Declared type. `Null`s are permitted in any field.
    pub ty: FieldType,
}

/// An ordered list of named fields describing a [`Row`] layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// # Errors
    /// Returns [`EngineError::DuplicateField`] on repeated names.
    pub fn new(fields: impl IntoIterator<Item = (impl Into<String>, FieldType)>) -> Result<Schema> {
        let fields: Vec<Field> = fields
            .into_iter()
            .map(|(name, ty)| Field {
                name: name.into(),
                ty,
            })
            .collect();
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(EngineError::DuplicateField(f.name.clone()));
            }
        }
        Ok(Schema { fields })
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the field with the given name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| EngineError::UnknownField(name.to_string()))
    }

    /// Type of the named field.
    pub fn type_of(&self, name: &str) -> Result<FieldType> {
        Ok(self.fields[self.index_of(name)?].ty)
    }

    /// Check that `row` matches this schema (arity and non-null types).
    pub fn validate(&self, row: &Row) -> Result<()> {
        if row.len() != self.fields.len() {
            return Err(EngineError::ArityMismatch {
                expected: self.fields.len(),
                got: row.len(),
            });
        }
        for (f, v) in self.fields.iter().zip(row.values()) {
            if let Some(ty) = v.field_type() {
                if ty != f.ty {
                    return Err(EngineError::TypeMismatch {
                        field: f.name.clone(),
                        expected: f.ty,
                        got: ty,
                    });
                }
            }
        }
        Ok(())
    }
}

/// How many values a [`Row`] holds in place; a wider row spills them to a
/// `Vec`. Two fits a reading and its key, the shape of every event that
/// `benchmark/` sends, and keeps a row at 56 bytes. On a 2-CPU host its
/// `wire_inorder_1q` ingested a median 6 % more events per second with two
/// than with three (80 bytes), three of four seed pairs up.
const INLINE: usize = 2;

/// A flat tuple of values.
///
/// Up to a few values live inside the row itself; a wider row keeps them in
/// a `Vec`. Where they live never shows: equality, `Debug` and serde see the
/// values in order, as for a `Vec<Value>`.
#[derive(Clone, Serialize, Deserialize)]
#[serde(from = "Vec<Value>", into = "Vec<Value>")]
pub struct Row(Repr);

#[derive(Clone)]
enum Repr {
    /// `vals[..len]` are the row; the slots past `len` hold `Null`.
    Inline {
        len: u8,
        vals: [Value; INLINE],
    },
    Spilled(Vec<Value>),
}

impl Row {
    /// Build a row from values.
    pub fn new(values: impl IntoIterator<Item = impl Into<Value>>) -> Row {
        values.into_iter().map(Into::into).collect()
    }

    /// A row of two values, written in one store: the shape of a reading
    /// and its key, which a decoder builds once per event.
    pub fn pair(a: Value, b: Value) -> Row {
        Row(Repr::Inline {
            len: 2,
            vals: [a, b],
        })
    }

    /// An empty row.
    pub fn empty() -> Row {
        Row(Repr::Inline {
            len: 0,
            vals: [const { Value::Null }; INLINE],
        })
    }

    /// The values in order.
    pub fn values(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline { len, vals } => &vals[..usize::from(*len)],
            Repr::Spilled(vals) => vals,
        }
    }

    fn values_mut(&mut self) -> &mut [Value] {
        match &mut self.0 {
            Repr::Inline { len, vals } => &mut vals[..usize::from(*len)],
            Repr::Spilled(vals) => vals,
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values().len()
    }

    /// Whether the row is empty.
    pub fn is_empty(&self) -> bool {
        self.values().is_empty()
    }

    /// Value at position `i`, or `Null` when out of bounds.
    pub fn get(&self, i: usize) -> &Value {
        static NULL: Value = Value::Null;
        self.values().get(i).unwrap_or(&NULL)
    }

    /// Numeric view of position `i`.
    pub fn f64(&self, i: usize) -> Option<f64> {
        self.get(i).as_f64()
    }

    /// Append a value. The value past the inline capacity moves the row's
    /// values to one heap block, sized for twice that capacity.
    pub fn push(&mut self, v: impl Into<Value>) {
        let v = v.into();
        match &mut self.0 {
            Repr::Inline { len, vals } if usize::from(*len) < INLINE => {
                vals[usize::from(*len)] = v;
                *len += 1;
            }
            Repr::Inline { vals, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend(vals.iter_mut().map(|x| std::mem::replace(x, Value::Null)));
                spilled.push(v);
                self.0 = Repr::Spilled(spilled);
            }
            Repr::Spilled(vals) => vals.push(v),
        }
    }

    /// Append a value, returning the extended row.
    pub fn with(mut self, v: impl Into<Value>) -> Row {
        self.push(v);
        self
    }

    /// Mutable access for in-place operators.
    pub fn set(&mut self, i: usize, v: Value) {
        if let Some(slot) = self.values_mut().get_mut(i) {
            *slot = v;
        }
    }
}

impl Default for Row {
    fn default() -> Row {
        Row::empty()
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        self.values() == other.values()
    }
}

/// `Row([..])`, as for a newtype over `Vec<Value>`.
impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Row").field(&self.values()).finish()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Row {
        Row::from_iter(values)
    }
}

/// The values in order; a spilled row hands over its heap block.
impl From<Row> for Vec<Value> {
    fn from(row: Row) -> Vec<Value> {
        match row.0 {
            Repr::Inline { len, vals } => vals.into_iter().take(usize::from(len)).collect(),
            Repr::Spilled(vals) => vals,
        }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// An iterator known to yield more than the inline capacity collects into
/// the heap block at once; anything else fills the row in place.
impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        let iter = iter.into_iter();
        if iter.size_hint().0 > INLINE {
            return Row(Repr::Spilled(iter.collect()));
        }
        let mut row = Row::empty();
        for v in iter {
            row.push(v);
        }
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_rejects_duplicates() {
        let err = Schema::new([("a", FieldType::Int), ("a", FieldType::Float)]).unwrap_err();
        assert!(matches!(err, EngineError::DuplicateField(f) if f == "a"));
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::new([("a", FieldType::Int), ("b", FieldType::Float)]).unwrap();
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert_eq!(s.type_of("a").unwrap(), FieldType::Int);
        assert!(s.index_of("c").is_err());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn schema_validates_rows() {
        let s = Schema::new([("a", FieldType::Int), ("b", FieldType::Float)]).unwrap();
        assert!(s
            .validate(&Row::new([Value::Int(1), Value::Float(2.0)]))
            .is_ok());
        // Nulls are allowed in any field.
        assert!(s
            .validate(&Row::new([Value::Null, Value::Float(2.0)]))
            .is_ok());
        assert!(s
            .validate(&Row::new([Value::Float(1.0), Value::Float(2.0)]))
            .is_err());
        assert!(s.validate(&Row::new([Value::Int(1)])).is_err());
    }

    #[test]
    fn value_numeric_views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Float(2.5).as_i64(), None);
    }

    #[test]
    fn total_cmp_orders_across_numeric_types() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Less);
        assert_eq!(Value::Float(3.0).total_cmp(&Value::Int(3)), Equal);
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Less);
        assert_eq!(Value::str("a").total_cmp(&Value::Int(0)), Greater);
    }

    #[test]
    fn key_equality_and_hash_agree_for_int_float() {
        use std::collections::HashMap;
        let mut m = HashMap::with_hasher(crate::hash::KeyHash::new());
        m.insert(Key(Value::Int(3)), 1);
        m.insert(Key(Value::Float(0.0)), 2);
        // 3 and 3.0 are the same key under the numeric total order, found
        // by an owned key and by a borrowed value alike; 0.0 and -0.0 are
        // two keys.
        assert_eq!(m.get(&Key(Value::Float(3.0))), Some(&1));
        let get = |v: Value| m.get(&v as &dyn KeyView).copied();
        assert_eq!(get(Value::Float(3.0)), Some(1));
        assert_eq!(get(Value::Int(3)), Some(1));
        assert_eq!(get(Value::Float(0.0)), Some(2));
        assert_eq!(get(Value::Int(0)), Some(2));
        assert_eq!(get(Value::Float(-0.0)), None);
    }

    #[test]
    fn row_projection_and_access() {
        let r = Row::new([Value::Int(1), Value::str("a"), Value::Float(3.0)]);
        assert_eq!(r.get(99), &Value::Null);
        assert_eq!(r.f64(2), Some(3.0));
        let r2 = r.clone().with(true);
        assert_eq!(r2.len(), 4);
    }

    fn spilled(values: Vec<Value>) -> Row {
        Row(Repr::Spilled(values))
    }

    #[test]
    fn push_with_set_and_get_cross_the_inline_boundary() {
        let mut row = Row::empty();
        for i in 0..2 * INLINE as i64 + 1 {
            assert_eq!(row.len(), i as usize);
            assert!(matches!(row.0, Repr::Inline { .. }) == (i as usize <= INLINE));
            row.push(i);
            assert_eq!(row.get(i as usize), &Value::Int(i));
            assert_eq!(row.get(i as usize + 1), &Value::Null);
        }
        let expected: Vec<Value> = (0..2 * INLINE as i64 + 1).map(Value::Int).collect();
        assert_eq!(row.values(), &expected[..]);
        assert!(matches!(row.0, Repr::Spilled(_)));

        // A full inline row, then two values past it.
        let mut full: Row = (0..INLINE as i64).map(Value::Int).collect();
        assert!(matches!(full.0, Repr::Inline { .. }));
        full.set(0, Value::str("a"));
        full.set(INLINE, Value::Bool(true)); // out of bounds: no-op
        assert_eq!(full.len(), INLINE);
        assert_eq!(full.get(0), &Value::str("a"));
        let mut wide = full.clone().with(3.5).with(false);
        assert!(matches!(wide.0, Repr::Spilled(_)));
        wide.set(INLINE + 1, Value::Null);
        wide.set(99, Value::Int(0));
        assert_eq!(wide.len(), INLINE + 2);
        assert_eq!(wide.f64(INLINE), Some(3.5));
        assert_eq!(wide.get(INLINE + 1), &Value::Null);
        assert_eq!(&wide.values()[..INLINE], full.values());
        assert_eq!(Vec::from(wide.clone()), wide.values().to_vec());
        assert_eq!(Vec::from(full.clone()), full.values().to_vec());
    }

    #[test]
    fn a_pair_is_the_two_value_row() {
        let pair = Row::pair(Value::Float(2.5), Value::Int(7));
        assert_eq!(pair, Row::new([Value::Float(2.5), Value::Int(7)]));
        assert!(matches!(pair.0, Repr::Inline { len: 2, .. }));
        assert_eq!(pair.clone().with(true).len(), 3);
    }

    #[test]
    fn where_the_values_live_never_changes_equality() {
        let values = vec![Value::Int(1), Value::Float(2.0)];
        assert_eq!(spilled(values.clone()), Row::new(values.clone()));
        assert_eq!(Row::new(values.clone()), spilled(values.clone()));
        assert_ne!(spilled(values.clone()), Row::new([Value::Int(1)]));
        assert_eq!(spilled(Vec::new()), Row::default());
        // Grown past the boundary one push at a time, or collected at once.
        let wide: Vec<Value> = (0..INLINE as i64 + 2).map(Value::Int).collect();
        let mut pushed = Row::empty();
        for v in &wide {
            pushed.push(v.clone());
        }
        assert_eq!(pushed, Row::from(wide.clone()));
        assert_eq!(
            pushed,
            wide.iter().filter(|_| true).cloned().collect::<Row>()
        );
    }

    #[test]
    fn debug_reads_like_a_newtype_over_a_vec() {
        let row = Row::new([Value::Int(1), Value::Float(2.5), Value::str("a")]);
        assert_eq!(format!("{row:?}"), r#"Row([Int(1), Float(2.5), Str("a")])"#);
        assert_eq!(
            format!("{:?}", row.clone().with(Value::Null).with(true)),
            r#"Row([Int(1), Float(2.5), Str("a"), Null, Bool(true)])"#
        );
        assert_eq!(format!("{:?}", Row::empty()), "Row([])");
        assert_eq!(
            format!("{:?}", spilled(vec![Value::Int(7)])),
            "Row([Int(7)])"
        );
        // The derived `Debug` of the old `Row(Vec<Value>)`, pretty form included.
        mod old {
            #[derive(Debug)]
            pub struct Row(#[allow(dead_code)] pub Vec<super::Value>);
        }
        let old = old::Row(row.values().to_vec());
        assert_eq!(format!("{row:?}"), format!("{old:?}"));
        assert_eq!(format!("{row:#?}"), format!("{old:#?}"));
    }

    #[test]
    fn a_row_is_no_bigger_than_its_inline_values_and_a_length() {
        assert!(std::mem::size_of::<Row>() <= (INLINE + 1) * std::mem::size_of::<Value>());
    }
}
