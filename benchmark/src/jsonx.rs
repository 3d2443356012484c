//! Accessors over the `serde_json` stand-in's value tree.

use serde_json::Value;

/// Field `key` of an object; `None` for a missing key or a non-object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Follows `path` through nested objects.
pub fn at<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, key| field(v, key))
}

pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

pub fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn items(v: &Value) -> &[Value] {
    match v {
        Value::Arr(a) => a,
        _ => &[],
    }
}

pub fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Obj(o) => o,
        _ => &[],
    }
}

/// Reads and parses a JSON file.
pub fn read(path: &std::path::Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}
