//! # rpt-json
//!
//! In-tree JSON: a [`Json`] value type, a compact/pretty writer, a
//! recursive-descent parser, and a [`json!`] literal macro. Replaces
//! `serde`/`serde_json` so the workspace builds with zero external
//! crates (checkpoints, vocab save/load, and the `bench_results/*.json`
//! artifact emitters all go through here).
//!
//! Numbers are kept as either `i64` or `f64`. Floats are written with
//! Rust's shortest round-trip `Display`, so `f64 → text → f64` is
//! bit-exact, and `f32 → f64 → text → f64 → f32` is likewise exact
//! (the f64 detour is lossless for every f32).

mod macros;
mod parse;
mod write;

pub use parse::{parse, JsonError};

use std::io::{self, Read as _};
use std::path::Path;

/// Reads the text file at `path`, refusing one above `limit` bytes with an
/// [`io::ErrorKind::FileTooLarge`] error before anything is read: a JSON
/// document becomes a tree several times its size, so an unbounded file
/// could exhaust memory before the parser sees a byte. The read itself is
/// bounded too, in case the file grows after its size was taken.
pub fn read_capped(path: impl AsRef<Path>, limit: u64) -> io::Result<String> {
    let path = path.as_ref();
    let too_large = |len: u64| {
        io::Error::new(
            io::ErrorKind::FileTooLarge,
            format!(
                "{}: {len} bytes exceeds the {limit}-byte limit",
                path.display()
            ),
        )
    };
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    if len > limit {
        return Err(too_large(len));
    }
    let mut text = String::with_capacity(len as usize);
    file.take(limit + 1).read_to_string(&mut text)?;
    if text.len() as u64 > limit {
        return Err(too_large(text.len() as u64));
    }
    Ok(text)
}

/// An insertion-ordered string → [`Json`] map (what JSON objects hold).
///
/// Backed by a `Vec` of pairs: artifact objects are small and write-once,
/// and preserving insertion order keeps emitted files diffable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Json)>,
}

impl Map {
    /// An empty map.
    pub fn new() -> Map {
        Map::default()
    }

    /// Inserts `key` → `value`, replacing (in place) any existing entry.
    pub fn insert(&mut self, key: String, value: Json) {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// The value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Json)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl From<Vec<(String, Json)>> for Map {
    fn from(entries: Vec<(String, Json)>) -> Map {
        let mut m = Map::new();
        for (k, v) in entries {
            m.insert(k, v);
        }
        m
    }
}

impl FromIterator<(String, Json)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Json)>>(iter: I) -> Map {
        let mut m = Map::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part or exponent in its source form.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (insertion-ordered).
    Object(Map),
}

impl Json {
    /// Parses JSON text (strict: rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        parse(text)
    }

    /// Pretty serialization (2-space indent, like `serde_json`).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write::pretty(self, 0, &mut out);
        out
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric view: ints widen to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (floats do not truncate; only `Int` qualifies).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Non-negative integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The map, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Member lookup on objects (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// True for `Json::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Compact serialization; `to_string()` comes from here.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        write::compact(self, &mut out);
        f.write_str(&out)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<&String> for Json {
    fn from(s: &String) -> Json {
        Json::Str(s.clone())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Array(v)
    }
}

impl From<Map> for Json {
    fn from(m: Map) -> Json {
        Json::Object(m)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(o: Option<T>) -> Json {
        match o {
            Some(v) => v.into(),
            None => Json::Null,
        }
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(i: $t) -> Json {
                Json::Int(i as i64)
            }
        }
    )*};
}
from_int!(i8, i16, i32, i64, u8, u16, u32, usize, isize);

impl From<u64> for Json {
    fn from(i: u64) -> Json {
        i64::try_from(i)
            .map(Json::Int)
            .unwrap_or(Json::Float(i as f64))
    }
}

impl From<f32> for Json {
    fn from(f: f32) -> Json {
        Json::Float(f as f64)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_capped_refuses_a_sparse_file_above_the_limit() {
        let dir = std::env::temp_dir().join(format!("rpt-json-cap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.json");
        // sparse: set_len writes no data
        std::fs::File::create(&path)
            .unwrap()
            .set_len(1 << 40)
            .unwrap();
        let err = read_capped(&path, 1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::FileTooLarge, "{err}");
        std::fs::write(&path, "[1, 2]").unwrap();
        assert_eq!(read_capped(&path, 6).unwrap(), "[1, 2]");
        assert_eq!(
            read_capped(&path, 5).unwrap_err().kind(),
            io::ErrorKind::FileTooLarge
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scalars_write_like_serde_json() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Int(-42).to_string(), "-42");
        assert_eq!(Json::Float(0.25).to_string(), "0.25");
        assert_eq!(Json::Str("a\"b\\c\n".into()).to_string(), r#""a\"b\\c\n""#);
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn float_display_round_trips_exactly() {
        for &x in &[0.1f64, 1.0 / 3.0, 1e300, 5e-324, -2.5, 123456.789] {
            let j = Json::Float(x).to_string();
            let back = Json::parse(&j).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {j} -> {back}");
        }
        // f32 round-trips through the f64 detour
        for &x in &[0.1f32, 1.0e-40, 3.4e38, -7.25, 1.0 / 3.0] {
            let j = Json::Float(x as f64).to_string();
            let back = Json::parse(&j).unwrap().as_f64().unwrap() as f32;
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {j} -> {back}");
        }
    }

    #[test]
    fn parse_accepts_standard_documents() {
        let doc = r#" {"a": [1, 2.5, -3e2, true, null], "b": {"nested": "x"}, "s": "A😀 \t"} "#;
        let v = Json::parse(doc).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0], Json::Int(1));
        assert_eq!(a[1], Json::Float(2.5));
        assert_eq!(a[2], Json::Float(-300.0));
        assert_eq!(a[3], Json::Bool(true));
        assert!(a[4].is_null());
        assert_eq!(
            v.get("b").unwrap().get("nested").unwrap().as_str(),
            Some("x")
        );
        assert_eq!(v.get("s").unwrap().as_str(), Some("A\u{1F600} \t"));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "not json",
            "{",
            "[1,",
            "{\"a\":}",
            "1 2",
            "\"unterminated",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = json!({
            "name": "bench",
            "rows": [ {"f1": 0.73, "n": 40}, {"f1": 0.55, "n": 40} ],
            "ok": true,
            "missing": null,
        });
        for text in [v.to_string(), v.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn json_macro_covers_expressions_and_nesting() {
        let f1 = 0.7312f64;
        let name = String::from("abt-buy");
        let maybe: Option<f64> = None;
        let rows = vec![json!({"k": 1usize}), json!({"k": 2usize})];
        let v = json!({
            "target": name,
            "f1": f1,
            "nested": {"exact": 1 + 1, "list": [0.72, 0.53]},
            "numeric": if f1.is_nan() { None } else { Some(f1) },
            "skipped": maybe,
            "rows": rows,
        });
        assert_eq!(v.get("target").unwrap().as_str(), Some("abt-buy"));
        assert_eq!(
            v.get("nested").unwrap().get("exact").unwrap(),
            &Json::Int(2)
        );
        assert_eq!(
            v.get("nested")
                .unwrap()
                .get("list")
                .unwrap()
                .as_array()
                .unwrap()[1],
            Json::Float(0.53)
        );
        assert_eq!(v.get("numeric").unwrap().as_f64(), Some(f1));
        assert!(v.get("skipped").unwrap().is_null());
        assert_eq!(v.get("rows").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn map_insert_replaces_in_place() {
        let mut m = Map::new();
        m.insert("a".into(), Json::Int(1));
        m.insert("b".into(), Json::Int(2));
        m.insert("a".into(), Json::Int(3));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("a"), Some(&Json::Int(3)));
        let order: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(order, ["a", "b"]);
    }

    #[test]
    fn serde_json_style_documents_parse() {
        // exactly what serde_json::to_string used to emit for a checkpoint
        let old = r#"{"format_version":1,"params":[{"name":"w","shape":[2],"data":[1.5,-2.5]}]}"#;
        let v = Json::parse(old).unwrap();
        assert_eq!(v.get("format_version").unwrap().as_u64(), Some(1));
        let p = &v.get("params").unwrap().as_array().unwrap()[0];
        assert_eq!(p.get("name").unwrap().as_str(), Some("w"));
        assert_eq!(
            p.get("data").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-2.5)
        );
        // ryu-style exponents from serde_json float output
        assert_eq!(Json::parse("1e-45").unwrap().as_f64(), Some(1e-45));
        assert_eq!(
            Json::parse("3.4028235e38").unwrap().as_f64(),
            Some(3.4028235e38)
        );
    }
}
