//! Entity consolidation: producing one *golden record* per cluster (§3).
//!
//! The "objective" part is majority voting over normalized values. The
//! "subjective" part — which record is *preferred* when values disagree —
//! is learned from a few pairwise examples, the paper's E3:
//! "iPhone 10 is \[M\] than iPhone 9" → the model infers the preference
//! relation ("newer") and applies it, here as a learned per-column
//! direction over numeric attributes.

use std::collections::HashMap;

use rpt_table::{Schema, Tuple, Value};
use rpt_tokenizer::normalize;

/// A learned per-column preference direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preference {
    /// Prefer the larger numeric value (e.g. year → "newer").
    Larger,
    /// Prefer the smaller numeric value (e.g. price → "cheaper").
    Smaller,
}

impl Preference {
    /// A human word for the inferred relation, PET-style: the cloze
    /// "a is `[M]` than b" filled per column semantics.
    pub fn word(&self, column_name: &str) -> &'static str {
        match (self, column_name) {
            (Preference::Larger, "year") => "newer",
            (Preference::Smaller, "year") => "older",
            (Preference::Larger, "price") => "pricier",
            (Preference::Smaller, "price") => "cheaper",
            (Preference::Larger, _) => "higher",
            (Preference::Smaller, _) => "lower",
        }
    }
}

/// The consolidator: majority voting plus learned preferences.
#[derive(Debug, Clone, Default)]
pub struct Consolidator {
    /// Column index → preferred direction (only for columns where the
    /// examples were consistent).
    preferences: HashMap<usize, Preference>,
}

impl Consolidator {
    /// Learns preference directions from `(preferred, other)` example
    /// pairs: a column gets a direction only when every example with both
    /// values numeric and distinct agrees.
    pub fn learn(schema: &Schema, examples: &[(Tuple, Tuple)]) -> Consolidator {
        let mut preferences = HashMap::new();
        for col in 0..schema.arity() {
            let mut larger = 0usize;
            let mut smaller = 0usize;
            for (pref, other) in examples {
                if let (Some(p), Some(o)) = (pref.get(col).as_f64(), other.get(col).as_f64()) {
                    if p > o {
                        larger += 1;
                    } else if p < o {
                        smaller += 1;
                    }
                }
            }
            if larger > 0 && smaller == 0 {
                preferences.insert(col, Preference::Larger);
            } else if smaller > 0 && larger == 0 {
                preferences.insert(col, Preference::Smaller);
            }
        }
        Consolidator { preferences }
    }

    /// The learned directions.
    pub fn preferences(&self) -> &HashMap<usize, Preference> {
        &self.preferences
    }

    /// Produces the golden record for a cluster of tuples.
    ///
    /// Per column: if a preference is learned and the column is numeric,
    /// pick the extreme in the preferred direction; otherwise majority-vote
    /// over normalized values, breaking ties toward the longest (most
    /// informative) surface form. NULLs never win unless every value is
    /// NULL.
    pub fn consolidate(&self, schema: &Schema, cluster: &[&Tuple]) -> Tuple {
        assert!(!cluster.is_empty(), "cannot consolidate an empty cluster");
        let mut values = Vec::with_capacity(schema.arity());
        for col in 0..schema.arity() {
            let candidates: Vec<&Value> = cluster
                .iter()
                .map(|t| t.get(col))
                .filter(|v| !v.is_null())
                .collect();
            if candidates.is_empty() {
                values.push(Value::Null);
                continue;
            }
            if let Some(pref) = self.preferences.get(&col) {
                let numeric: Vec<(&Value, f64)> = candidates
                    .iter()
                    .filter_map(|v| v.as_f64().map(|f| (*v, f)))
                    .collect();
                if !numeric.is_empty() {
                    let best = match pref {
                        Preference::Larger => numeric.iter().max_by(|a, b| a.1.total_cmp(&b.1)),
                        Preference::Smaller => numeric.iter().min_by(|a, b| a.1.total_cmp(&b.1)),
                    };
                    values.push(best.unwrap().0.clone());
                    continue;
                }
            }
            values.push(majority_vote(&candidates));
        }
        Tuple::new(values)
    }
}

/// Majority over normalized token sequences; ties break to the longest
/// rendered form, then lexicographically for determinism.
fn majority_vote(candidates: &[&Value]) -> Value {
    let mut counts: HashMap<String, (usize, &Value)> = HashMap::new();
    for v in candidates {
        let key = normalize(&v.render()).join(" ");
        let entry = counts.entry(key).or_insert((0, v));
        entry.0 += 1;
        // keep the longest surface form as the representative
        if v.render().len() > entry.1.render().len() {
            entry.1 = v;
        }
    }
    counts
        .into_iter()
        .max_by(|a, b| {
            a.1 .0
                .cmp(&b.1 .0)
                .then_with(|| a.1 .1.render().len().cmp(&b.1 .1.render().len()))
                .then_with(|| b.0.cmp(&a.0))
        })
        .map(|(_, (_, v))| v.clone())
        .expect("non-empty candidates")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::text_columns(&["title", "brand", "year", "price"])
    }

    fn t(title: &str, brand: &str, year: i64, price: f64) -> Tuple {
        Tuple::new(vec![
            Value::text(title),
            Value::text(brand),
            Value::Int(year),
            Value::Float(price),
        ])
    }

    #[test]
    fn learns_newer_preference_from_examples() {
        // E3: "iphone 10 preferred over iphone 9", "iphone 12 over iphone 10"
        let examples = vec![
            (
                t("iphone 10", "apple", 2017, 999.0),
                t("iphone 9", "apple", 2016, 899.0),
            ),
            (
                t("iphone 12", "apple", 2020, 1099.0),
                t("iphone 10", "apple", 2017, 999.0),
            ),
        ];
        let c = Consolidator::learn(&schema(), &examples);
        assert_eq!(c.preferences().get(&2), Some(&Preference::Larger));
        assert_eq!(Preference::Larger.word("year"), "newer");
        // price also increased in both examples -> larger preferred
        assert_eq!(c.preferences().get(&3), Some(&Preference::Larger));
    }

    #[test]
    fn inconsistent_examples_learn_nothing() {
        let examples = vec![
            (t("a", "x", 2019, 10.0), t("b", "x", 2017, 20.0)),
            (t("c", "x", 2015, 10.0), t("d", "x", 2018, 20.0)),
        ];
        let c = Consolidator::learn(&schema(), &examples);
        assert!(
            c.preferences().get(&2).is_none(),
            "year direction conflicts"
        );
        assert_eq!(c.preferences().get(&3), Some(&Preference::Smaller));
    }

    #[test]
    fn consolidate_majority_and_preference() {
        let examples = vec![(
            t("iphone 10", "apple", 2018, 999.0),
            t("iphone 9", "apple", 2016, 899.0),
        )];
        let c = Consolidator::learn(&schema(), &examples);
        let a = t("iphone ten", "apple", 2017, 949.0);
        let b = t("iphone ten", "apple inc", 2018, 999.0);
        let d = t("iphone 10", "apple", 2017, 949.0);
        let golden = c.consolidate(&schema(), &[&a, &b, &d]);
        // title: "iphone ten" appears twice vs "iphone 10" once
        assert_eq!(golden.get(0), &Value::text("iphone ten"));
        // brand: "apple" twice beats "apple inc"
        assert_eq!(golden.get(1), &Value::text("apple"));
        // year: preference Larger -> 2018
        assert_eq!(golden.get(2), &Value::Int(2018));
    }

    #[test]
    fn nulls_lose_to_values() {
        let c = Consolidator::default();
        let a = Tuple::new(vec![
            Value::Null,
            Value::text("x"),
            Value::Null,
            Value::Null,
        ]);
        let b = Tuple::new(vec![
            Value::text("t"),
            Value::Null,
            Value::Null,
            Value::Null,
        ]);
        let golden = c.consolidate(&schema(), &[&a, &b]);
        assert_eq!(golden.get(0), &Value::text("t"));
        assert_eq!(golden.get(1), &Value::text("x"));
        assert!(golden.get(2).is_null());
    }

    #[test]
    fn tie_breaks_to_longest_surface() {
        let c = Consolidator::default();
        let a = Tuple::new(vec![
            Value::text("hp"),
            Value::Null,
            Value::Null,
            Value::Null,
        ]);
        let b = Tuple::new(vec![
            Value::text("hewlett packard"),
            Value::Null,
            Value::Null,
            Value::Null,
        ]);
        let golden = c.consolidate(&schema(), &[&a, &b]);
        assert_eq!(golden.get(0), &Value::text("hewlett packard"));
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn empty_cluster_panics() {
        Consolidator::default().consolidate(&schema(), &[]);
    }
}
