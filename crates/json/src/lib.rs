//! Self-contained JSON for the appvsweb workspace.
//!
//! The build runs fully offline, so this crate replaces `serde` +
//! `serde_json` with a purpose-built value type ([`Json`]), a strict
//! parser, compact/pretty serializers, and the [`ToJson`] / [`FromJson`]
//! trait pair. The [`impl_json!`] macro plays the role of
//! `#[derive(Serialize, Deserialize)]` for the three shapes the
//! workspace actually uses: structs with named fields (with optional
//! key renames for HAR casing), transparent newtypes, and unit enums
//! (which double as object keys via [`JsonKey`]).
//!
//! Canonical-form guarantees the rest of the workspace relies on:
//!
//! * Object key order is the insertion order of the writer, so two
//!   identical values always serialize to byte-identical text — the
//!   determinism tests compare whole studies this way.
//! * serialize → parse → re-serialize is a fixed point (golden-snapshot
//!   tests assert it on full studies).
//! * Non-negative integers always serialize without sign or fraction;
//!   floats use Rust's shortest round-trippable `Display` form, with
//!   `-0.0` canonicalized to `0` and non-finite values written as
//!   `null` (JSON has no NaN/Infinity).

mod convert;
pub mod fuzz;
mod parse;
mod ser;
mod value;

pub use convert::JsonKey;
pub use parse::parse;
pub use value::{Json, JsonError};

/// Serialize any [`ToJson`] value to compact JSON.
pub fn encode<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_compact()
}

/// Serialize any [`ToJson`] value to pretty (2-space indented) JSON.
pub fn encode_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_pretty()
}

/// Parse JSON text into any [`FromJson`] value.
pub fn decode<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Build the JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Conversion out of a [`Json`] value.
pub trait FromJson: Sized {
    /// Rebuild `Self` from its JSON representation.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

/// Implement [`ToJson`] + [`FromJson`] (and, for enums, [`JsonKey`]) for
/// a type, in place of a serde derive.
///
/// Three forms:
///
/// ```ignore
/// impl_json!(struct Url { scheme, host, port, path, query });
/// impl_json!(newtype StatusCode(u16));
/// impl_json!(enum Medium { App, Web });
/// ```
///
/// Struct fields serialize in the declared order under their own name;
/// on parse, a missing key is treated as `null`, so `Option` fields
/// tolerate elision. Newtypes serialize
/// transparently as their single field. Unit enums serialize as their
/// variant-name string and may be used as `BTreeMap` keys.
#[macro_export]
macro_rules! impl_json {
    (enum $ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Str($crate::JsonKey::to_key(self))
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> ::core::result::Result<Self, $crate::JsonError> {
                match v {
                    $crate::Json::Str(s) => <$ty as $crate::JsonKey>::from_key(s),
                    other => ::core::result::Result::Err($crate::JsonError::schema(format!(
                        concat!("expected ", stringify!($ty), " string, got {}"),
                        other.kind()
                    ))),
                }
            }
        }
        impl $crate::JsonKey for $ty {
            fn to_key(&self) -> ::std::string::String {
                match self { $( $ty::$variant => stringify!($variant), )+ }.to_string()
            }
            fn from_key(key: &str) -> ::core::result::Result<Self, $crate::JsonError> {
                match key {
                    $( stringify!($variant) => ::core::result::Result::Ok($ty::$variant), )+
                    other => ::core::result::Result::Err($crate::JsonError::schema(format!(
                        concat!("unknown ", stringify!($ty), " variant: {:?}"),
                        other
                    ))),
                }
            }
        }
    };
    (newtype $ty:ident($inner:ty)) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::ToJson::to_json(&self.0)
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> ::core::result::Result<Self, $crate::JsonError> {
                ::core::result::Result::Ok($ty(<$inner as $crate::FromJson>::from_json(v)?))
            }
        }
    };
    (struct $ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::ToJson::to_json(&self.$field),
                    ),)+
                ])
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> ::core::result::Result<Self, $crate::JsonError> {
                ::core::result::Result::Ok($ty {
                    $( $field: v.field(stringify!($field))?, )+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests;
