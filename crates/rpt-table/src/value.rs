//! Typed attribute values.

use std::fmt;

/// An attribute value: the paper's tables mix categorical, ordinal, and
/// numerical data, so values carry a lightweight dynamic type.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL-style NULL / missing value.
    Null,
    /// Free text (also used for categorical data).
    Text(String),
    /// Integer.
    Int(i64),
    /// Floating point.
    Float(f64),
}

impl Value {
    /// Parses a raw string into the most specific value type.
    /// Empty strings and the literal `null` / `NULL` become [`Value::Null`].
    pub fn parse(raw: &str) -> Value {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.eq_ignore_ascii_case("null") {
            return Value::Null;
        }
        if let Ok(i) = trimmed.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = trimmed.parse::<f64>() {
            return Value::Float(f);
        }
        Value::Text(trimmed.to_string())
    }

    /// True for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value as text, if it is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view (ints widen to float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Canonical string rendering (what the tokenizer sees). NULL renders
    /// as the empty string.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Text(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    format!("{:.1}", f)
                } else {
                    format!("{}", f)
                }
            }
        }
    }

    /// Key used for grouping in profiling: NULL-safe, case-insensitive for
    /// text, exact for numbers.
    pub fn group_key(&self) -> String {
        match self {
            Value::Null => "\u{0}NULL".to_string(),
            Value::Text(s) => s.to_lowercase(),
            Value::Int(i) => format!("i:{i}"),
            Value::Float(f) => format!("f:{f}"),
        }
    }

    /// Construct a text value.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            other => write!(f, "{}", other.render()),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_dispatches_on_content() {
        assert_eq!(Value::parse(""), Value::Null);
        assert_eq!(Value::parse("  NULL "), Value::Null);
        assert_eq!(Value::parse("42"), Value::Int(42));
        assert_eq!(Value::parse("-7"), Value::Int(-7));
        assert_eq!(Value::parse("3.5"), Value::Float(3.5));
        assert_eq!(Value::parse("iPhone X"), Value::text("iPhone X"));
    }

    #[test]
    fn render_roundtrips_types() {
        assert_eq!(Value::Null.render(), "");
        assert_eq!(Value::Int(9).render(), "9");
        assert_eq!(Value::Float(9.99).render(), "9.99");
        assert_eq!(Value::Float(10.0).render(), "10.0");
        assert_eq!(Value::text("abc").render(), "abc");
    }

    #[test]
    fn group_key_is_case_insensitive_for_text_and_null_safe() {
        assert_eq!(
            Value::text("Apple").group_key(),
            Value::text("APPLE").group_key()
        );
        assert_ne!(Value::Null.group_key(), Value::text("").group_key());
        assert_ne!(Value::Int(1).group_key(), Value::Float(1.0).group_key());
    }

    #[test]
    fn as_f64_widens_ints() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::text("x").as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }
}
