//! [`ToJson`] / [`FromJson`] implementations for primitives and the
//! standard containers the workspace serializes.

use crate::value::{Json, JsonError};
use crate::{FromJson, ToJson};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// Types usable as JSON object keys (for `BTreeMap` serialization).
///
/// Implemented for `String` and for every unit enum that goes through
/// [`impl_json!`](crate::impl_json) — serde likewise renders unit-variant
/// map keys as their name string.
pub trait JsonKey: Sized {
    /// The object-key form of `self`.
    fn to_key(&self) -> String;
    /// Rebuild from an object key.
    fn from_key(key: &str) -> Result<Self, JsonError>;
}

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, JsonError> {
        Ok(key.to_string())
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(value.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::schema(format!(
                "expected bool, got {}",
                other.kind()
            ))),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::schema(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

/// A borrowed or owned string encodes as the string; it decodes owned.
impl ToJson for Cow<'_, str> {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for Cow<'static, str> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        String::from_json(value).map(Cow::Owned)
    }
}

macro_rules! impl_json_uint {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Uint(*self as u64)
            }
        }
        impl FromJson for $ty {
            fn from_json(value: &Json) -> Result<Self, JsonError> {
                let raw = match value {
                    Json::Uint(v) => *v,
                    Json::Int(v) if *v >= 0 => *v as u64,
                    other => {
                        return Err(JsonError::schema(format!(
                            concat!("expected ", stringify!($ty), ", got {}"),
                            other.kind()
                        )))
                    }
                };
                <$ty>::try_from(raw).map_err(|_| {
                    JsonError::schema(format!(concat!("{} out of range for ", stringify!($ty)), raw))
                })
            }
        }
    )+};
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                let v = *self as i64;
                // Canonical form: non-negative integers are always Uint.
                if v >= 0 { Json::Uint(v as u64) } else { Json::Int(v) }
            }
        }
        impl FromJson for $ty {
            fn from_json(value: &Json) -> Result<Self, JsonError> {
                let raw: i64 = match value {
                    Json::Int(v) => *v,
                    Json::Uint(v) => i64::try_from(*v).map_err(|_| {
                        JsonError::schema(format!("{v} out of range for i64"))
                    })?,
                    other => {
                        return Err(JsonError::schema(format!(
                            concat!("expected ", stringify!($ty), ", got {}"),
                            other.kind()
                        )))
                    }
                };
                <$ty>::try_from(raw).map_err(|_| {
                    JsonError::schema(format!(concat!("{} out of range for ", stringify!($ty)), raw))
                })
            }
        }
    )+};
}

impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Float(v) => Ok(*v),
            Json::Uint(v) => Ok(*v as f64),
            Json::Int(v) => Ok(*v as f64),
            // Non-finite floats serialize as null (JSON has no NaN).
            Json::Null => Ok(f64::NAN),
            other => Err(JsonError::schema(format!(
                "expected number, got {}",
                other.kind()
            ))),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.items()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + Ord> ToJson for BTreeSet<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Ord> FromJson for BTreeSet<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.items()?.iter().map(T::from_json).collect()
    }
}

impl<K: JsonKey + Ord, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_json()))
                .collect(),
        )
    }
}

impl<K: JsonKey + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .entries()?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_json(v)?)))
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let items = value.items()?;
        let [a, b] = items else {
            return Err(JsonError::schema(format!(
                "expected 2-element array, got {} elements",
                items.len()
            )));
        };
        Ok((A::from_json(a)?, B::from_json(b)?))
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let items = value.items()?;
        let [a, b, c] = items else {
            return Err(JsonError::schema(format!(
                "expected 3-element array, got {} elements",
                items.len()
            )));
        };
        Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        T::from_json(value).map(Box::new)
    }
}
