//! A small dynamic value type for operation arguments and document content.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A dynamically typed value.
///
/// Used for the arguments of intercepted RDL calls
/// ([`OpDescriptor`](crate::OpDescriptor)) and as the leaf content of the
/// JSON document CRDT. Deliberately small — only the shapes the evaluation
/// subjects need.
///
/// A string is held behind a reference count: cloning a value — an
/// argument into a replica, an observation, an array element — shares the
/// text instead of copying it. Sharing is a storage detail: `Display`, the
/// serde form, ordering and the canonical bytes are the text's.
///
/// ```
/// use er_pi_model::Value;
///
/// let v = Value::from(42);
/// assert_eq!(v.as_int(), Some(42));
/// assert_eq!(v.to_string(), "42");
///
/// let list = Value::List(vec![Value::from("a"), Value::from(true)]);
/// assert_eq!(list.to_string(), r#"["a", true]"#);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Value {
    /// Absent / null.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// UTF-8 string, shared between the values cloned from it.
    Str(Arc<str>),
    /// Ordered list of values.
    List(Vec<Value>),
}

impl Value {
    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(&**s),
            _ => None,
        }
    }

    /// Returns the shared string handle, if this is a [`Value::Str`]:
    /// what a caller keeps to hold the text without copying it.
    pub fn as_shared_str(&self) -> Option<&Arc<str>> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the list payload, if this is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Returns `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}

/// Copies the text into a new shared allocation; a caller that already
/// holds an `Arc<str>` passes that instead.
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}

impl From<Arc<str>> for Value {
    fn from(s: Arc<str>) -> Self {
        Value::Str(s)
    }
}

impl From<&Arc<str>> for Value {
    fn from(s: &Arc<str>) -> Self {
        Value::Str(Arc::clone(s))
    }
}

impl<V: Into<Value>> FromIterator<V> for Value {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        Value::List(iter.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::from(3).as_int(), Some(3));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::from("x").as_int(), None);
    }

    #[test]
    fn collect_into_list() {
        let v: Value = [1, 2, 3].into_iter().collect();
        assert_eq!(v.as_list().map(<[Value]>::len), Some(3));
    }

    #[test]
    fn display_is_nonempty_for_all_variants() {
        for v in [
            Value::Null,
            Value::from(false),
            Value::from(0),
            Value::from(""),
            Value::List(vec![]),
        ] {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn ordering_is_total() {
        let mut vals = [
            Value::from(2),
            Value::Null,
            Value::from("a"),
            Value::from(1),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
    }

    /// The text behind a shared string is what every external form shows:
    /// these literals are the ones a `String` payload produced.
    #[test]
    fn a_shared_string_keeps_its_display_serde_and_canonical_bytes() {
        use crate::CanonicalEncode;

        let quoted = Value::from("a\"b");
        let list = Value::List(vec![Value::from("otb"), Value::from(7), Value::from("ph")]);
        assert_eq!(quoted.to_string(), r#""a\"b""#);
        assert_eq!(list.to_string(), r#"["otb", 7, "ph"]"#);
        assert_eq!(serde_json::to_string(&quoted).unwrap(), r#"{"Str":"a\"b"}"#);
        assert_eq!(
            serde_json::to_string(&list).unwrap(),
            r#"{"List":[{"Str":"otb"},{"Int":7},{"Str":"ph"}]}"#
        );
        let bytes = |v: &Value| {
            let mut out = Vec::new();
            v.encode_canonical(&mut out);
            out
        };
        assert_eq!(
            bytes(&quoted),
            [3, 3, 0, 0, 0, 0, 0, 0, 0, b'a', b'"', b'b']
        );
        assert_eq!(
            bytes(&list),
            [
                4, 3, 0, 0, 0, 0, 0, 0, 0, // a list of three
                3, 3, 0, 0, 0, 0, 0, 0, 0, b'o', b't', b'b', // "otb"
                2, 7, 0, 0, 0, 0, 0, 0, 0, // 7
                3, 2, 0, 0, 0, 0, 0, 0, 0, b'p', b'h', // "ph"
            ]
        );
        let json = serde_json::to_string(&list).unwrap();
        assert_eq!(serde_json::from_str::<Value>(&json).unwrap(), list);
    }

    #[test]
    fn a_clone_shares_the_text() {
        let original = Value::from(String::from("issue"));
        let copy = original.clone();
        let (a, b) = (original.as_shared_str(), copy.as_shared_str());
        assert!(Arc::ptr_eq(a.unwrap(), b.unwrap()));
        assert_eq!(Value::from(Arc::clone(a.unwrap())), original);
        assert_eq!(Value::from(3).as_shared_str(), None);
    }

    #[test]
    fn serde_roundtrip() {
        let v = Value::List(vec![Value::from(1), Value::from("two"), Value::Bool(true)]);
        let json = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
    }
}
