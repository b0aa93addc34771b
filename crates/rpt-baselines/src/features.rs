//! Classic similarity features over tuple pairs — the feature space of the
//! ZeroER and DeepMatcher-style baselines (token jaccard, containment,
//! per-column equality, numeric closeness, length ratio).

use std::collections::HashSet;

use rpt_table::{Schema, Tuple};
use rpt_tokenizer::normalize;

/// Names of the features produced by [`pair_features`], in order.
pub const FEATURE_NAMES: [&str; 6] = [
    "token_jaccard",
    "token_containment",
    "aligned_col_equality",
    "numeric_closeness",
    "length_ratio",
    "rare_token_overlap",
];

fn all_tokens(schema: &Schema, t: &Tuple) -> Vec<String> {
    let mut out = Vec::new();
    for c in 0..schema.arity() {
        let v = t.get(c);
        if !v.is_null() {
            out.extend(normalize(&v.render()));
        }
    }
    out
}

/// Computes the 6 similarity features for a pair. All features are in
/// `[0, 1]` with 1 meaning "more similar".
pub fn pair_features(schema_a: &Schema, a: &Tuple, schema_b: &Schema, b: &Tuple) -> Vec<f64> {
    let ta = all_tokens(schema_a, a);
    let tb = all_tokens(schema_b, b);
    let sa: HashSet<&String> = ta.iter().collect();
    let sb: HashSet<&String> = tb.iter().collect();
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    let jaccard = if union == 0.0 { 0.0 } else { inter / union };
    let containment = if sa.is_empty() || sb.is_empty() {
        0.0
    } else {
        inter / (sa.len().min(sb.len()) as f64)
    };

    // aligned columns: only meaningful when the schemas agree by name
    let mut eq_count = 0.0;
    let mut eq_total = 0.0;
    let mut num_close = 0.0;
    let mut num_total = 0.0;
    for ca in 0..schema_a.arity() {
        let Some(cb) = schema_b.index_of(schema_a.name(ca)) else {
            continue;
        };
        let (va, vb) = (a.get(ca), b.get(cb));
        if va.is_null() || vb.is_null() {
            continue;
        }
        eq_total += 1.0;
        if normalize(&va.render()) == normalize(&vb.render()) {
            eq_count += 1.0;
        }
        let na = va.as_f64().or_else(|| va.render().parse().ok());
        let nb = vb.as_f64().or_else(|| vb.render().parse().ok());
        if let (Some(x), Some(y)) = (na, nb) {
            num_total += 1.0;
            let denom = x.abs().max(y.abs());
            num_close += if denom == 0.0 {
                1.0
            } else {
                (1.0 - (x - y).abs() / denom).max(0.0)
            };
        }
    }
    let aligned_eq = if eq_total == 0.0 {
        0.0
    } else {
        eq_count / eq_total
    };
    let numeric = if num_total == 0.0 {
        0.5
    } else {
        num_close / num_total
    };

    let len_ratio = if ta.is_empty() || tb.is_empty() {
        0.0
    } else {
        (ta.len().min(tb.len()) as f64) / (ta.len().max(tb.len()) as f64)
    };

    // overlap restricted to "rare-looking" tokens: length >= 4 or numeric
    // with >= 3 digits (brand/line/model/price carriers)
    let rare = |t: &&&String| -> bool {
        let t = t.as_str();
        t.len() >= 4 || (t.len() >= 3 && t.chars().all(|c| c.is_ascii_digit() || c == '.'))
    };
    let ra: HashSet<&&String> = sa.iter().filter(|t| rare(t)).collect();
    let rb: HashSet<&&String> = sb.iter().filter(|t| rare(t)).collect();
    let rare_overlap = if ra.is_empty() || rb.is_empty() {
        0.0
    } else {
        ra.intersection(&rb).count() as f64 / ra.len().min(rb.len()) as f64
    };

    vec![
        jaccard,
        containment,
        aligned_eq,
        numeric,
        len_ratio,
        rare_overlap,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_table::Value;

    fn schema() -> Schema {
        Schema::text_columns(&["title", "brand", "price"])
    }

    fn t(title: &str, brand: &str, price: &str) -> Tuple {
        Tuple::new(vec![
            Value::text(title),
            Value::text(brand),
            Value::parse(price),
        ])
    }

    #[test]
    fn identical_tuples_score_one() {
        let a = t("iphone x 64gb", "apple", "999.99");
        let f = pair_features(&schema(), &a, &schema(), &a);
        assert_eq!(f.len(), FEATURE_NAMES.len());
        for (v, name) in f.iter().zip(FEATURE_NAMES.iter()) {
            assert!((*v - 1.0).abs() < 1e-12, "{name} = {v}");
        }
    }

    #[test]
    fn disjoint_tuples_score_low() {
        let a = t("iphone x", "apple", "999.99");
        let b = t("galaxy 9", "samsung", "650.00");
        let f = pair_features(&schema(), &a, &schema(), &b);
        assert!(f[0] < 0.15, "jaccard {}", f[0]);
        assert_eq!(f[2], 0.0, "no aligned column equal");
        assert!(f[5] < 0.5, "rare overlap {}", f[5]);
    }

    #[test]
    fn near_duplicates_score_high() {
        let a = t("iphone x 64 gb", "apple", "999.99");
        let b = t("iphone 10 64gb", "apple inc", "989.99");
        let f = pair_features(&schema(), &a, &schema(), &b);
        assert!(f[0] > 0.3, "jaccard {}", f[0]);
        assert!(f[3] > 0.9, "numeric closeness {}", f[3]);
    }

    #[test]
    fn schema_mismatch_disables_aligned_features() {
        let sa = Schema::text_columns(&["title"]);
        let sb = Schema::text_columns(&["name"]);
        let a = Tuple::new(vec![Value::text("iphone")]);
        let b = Tuple::new(vec![Value::text("iphone")]);
        let f = pair_features(&sa, &a, &sb, &b);
        assert_eq!(f[2], 0.0);
        assert_eq!(f[3], 0.5, "numeric defaults to uninformative");
        assert_eq!(f[0], 1.0, "token features still work");
    }

    #[test]
    fn nulls_are_ignored() {
        let a = Tuple::new(vec![Value::text("iphone"), Value::Null, Value::Null]);
        let b = Tuple::new(vec![
            Value::text("iphone"),
            Value::text("apple"),
            Value::Null,
        ]);
        let f = pair_features(&schema(), &a, &schema(), &b);
        assert!(f[0] > 0.4);
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
