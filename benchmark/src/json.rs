//! Just enough JSON output for the report lines.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// A number, printed with every digit Rust's shortest round-trip
    /// formatting gives it.
    Num(f64),
    /// A whole number.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // JSON has no NaN or infinity.
            Json::Num(x) if !x.is_finite() => f.write_str("null"),
            Json::Num(x) => write!(f, "{x}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Str(s) => write_str(f, s),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Json;

    #[test]
    fn prints_nested_objects_and_escapes() {
        let v = Json::obj([
            ("a", Json::Num(1.25)),
            ("b", Json::Int(3)),
            ("c", Json::obj([("d", Json::str("x\"y"))])),
            ("e", Json::Num(f64::NAN)),
            ("f", Json::Bool(true)),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"a": 1.25, "b": 3, "c": {"d": "x\"y"}, "e": null, "f": true}"#
        );
    }
}
