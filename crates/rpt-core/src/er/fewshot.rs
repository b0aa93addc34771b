//! Few-shot adaptation of the matcher (§3, opportunity O2).
//!
//! Two mechanisms, mirroring the paper's E1:
//!
//! * [`infer_match_patterns`] — PET-style task interpretation: from a few
//!   labeled example pairs, instantiate the templates
//!   *T1 "True: if a and b have the same `[M]₁`"* and
//!   *T2 "False: if a and b have different `[M]₂`"* by finding the
//!   attributes that are equal in every positive example and different in
//!   every negative one ("color does not matter but model matters").
//! * [`calibrate_threshold`] — adapts the matcher's decision threshold to
//!   the target's subjective criteria using k labeled examples.

use rpt_table::{Schema, Tuple};
use rpt_tokenizer::normalize;

/// The inferred task interpretation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatchPatterns {
    /// Attributes filling T1's `[M]₁`: equal in all positive examples.
    pub must_match: Vec<String>,
    /// Attributes filling T2's `[M]₂`: different in all negative examples
    /// (and equal in the positives, so they are discriminative).
    pub must_differ: Vec<String>,
    /// Attributes the examples say are irrelevant: different in at least
    /// one *positive* pair ("color does not matter").
    pub irrelevant: Vec<String>,
}

fn attr_equal(a: &Tuple, b: &Tuple, col: usize) -> bool {
    normalize(&a.get(col).render()) == normalize(&b.get(col).render())
}

/// Instantiates the PET templates from labeled example pairs over a shared
/// schema. `examples` holds `(a, b, label)` triples.
pub fn infer_match_patterns(schema: &Schema, examples: &[(Tuple, Tuple, bool)]) -> MatchPatterns {
    let mut out = MatchPatterns::default();
    for col in 0..schema.arity() {
        let name = schema.name(col).to_string();
        let pos: Vec<bool> = examples
            .iter()
            .filter(|(_, _, l)| *l)
            .map(|(a, b, _)| attr_equal(a, b, col))
            .collect();
        let neg: Vec<bool> = examples
            .iter()
            .filter(|(_, _, l)| !*l)
            .map(|(a, b, _)| attr_equal(a, b, col))
            .collect();
        let eq_in_all_pos = !pos.is_empty() && pos.iter().all(|&e| e);
        let diff_in_some_pos = pos.iter().any(|&e| !e);
        let diff_in_all_neg = !neg.is_empty() && neg.iter().all(|&e| !e);
        if eq_in_all_pos {
            out.must_match.push(name.clone());
            if diff_in_all_neg {
                out.must_differ.push(name.clone());
            }
        }
        if diff_in_some_pos {
            out.irrelevant.push(name);
        }
    }
    out
}

/// Picks the threshold on P(match) that maximizes accuracy on the few
/// labeled examples (grid over 0.05..0.95); ties go to the threshold
/// closest to 0.5 (stay near the prior with little evidence).
pub fn calibrate_threshold(scores: &[f32], labels: &[bool]) -> f32 {
    assert_eq!(scores.len(), labels.len());
    if scores.is_empty() {
        return 0.5;
    }
    let mut best = (0.5f32, -1.0f64);
    for t in threshold_grid() {
        let correct = scores
            .iter()
            .zip(labels.iter())
            .filter(|(&s, &l)| (s >= t) == l)
            .count();
        let acc = correct as f64 / scores.len() as f64;
        let better = acc > best.1 + 1e-12
            || (acc > best.1 - 1e-12 && (t - 0.5).abs() < (best.0 - 0.5).abs());
        if better {
            best = (t, acc);
        }
    }
    best.0
}

/// The candidate thresholds both calibrators search: a coarse 0.05 grid
/// plus a fine tail near 1.0 — matchers trained on class-balanced batches
/// are well separated only at very high scores once deployed on
/// negative-skewed candidate sets.
fn threshold_grid() -> impl Iterator<Item = f32> {
    (1..19)
        .map(|s| s as f32 * 0.05)
        .chain([0.96, 0.97, 0.98, 0.99])
}

/// Like [`calibrate_threshold`] but maximizes F1 instead of accuracy —
/// appropriate when the labeled examples are drawn from the (heavily
/// negative-skewed) candidate distribution rather than balanced.
pub fn calibrate_threshold_f1(scores: &[f32], labels: &[bool]) -> f32 {
    assert_eq!(scores.len(), labels.len());
    if scores.is_empty() {
        return 0.5;
    }
    let mut best = (0.5f32, -1.0f64);
    for t in threshold_grid() {
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut fn_ = 0usize;
        for (&s, &l) in scores.iter().zip(labels.iter()) {
            match (s >= t, l) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                _ => {}
            }
        }
        let p = if tp + fp == 0 {
            1.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let r = if tp + fn_ == 0 {
            1.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        let f1 = if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        };
        let better =
            f1 > best.1 + 1e-12 || (f1 > best.1 - 1e-12 && (t - 0.5).abs() < (best.0 - 0.5).abs());
        if better {
            best = (t, f1);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_table::Value;

    fn schema() -> Schema {
        Schema::text_columns(&["model", "color", "memory"])
    }

    fn t(model: &str, color: &str, memory: &str) -> Tuple {
        Tuple::new(vec![
            Value::text(model),
            Value::text(color),
            Value::text(memory),
        ])
    }

    #[test]
    fn color_does_not_matter_but_model_matters() {
        // E1 from Fig. 5: a positive pair with different colors, a negative
        // pair with different models.
        let examples = vec![
            (
                t("iphone 12", "red", "64gb"),
                t("iphone 12", "black", "64gb"),
                true,
            ),
            (
                t("iphone 12", "red", "64gb"),
                t("iphone 11", "red", "64gb"),
                false,
            ),
        ];
        let p = infer_match_patterns(&schema(), &examples);
        assert!(p.must_match.contains(&"model".to_string()));
        assert!(p.must_differ.contains(&"model".to_string()));
        assert!(p.irrelevant.contains(&"color".to_string()));
        assert!(
            !p.must_differ.contains(&"memory".to_string()),
            "memory equal in the negative too"
        );
    }

    #[test]
    fn normalization_tolerates_surface_variants() {
        let examples = vec![(
            t("Galaxy S9", "Blue", "64GB"),
            t("galaxy s 9", "blue", "64 gb"),
            true,
        )];
        let p = infer_match_patterns(&schema(), &examples);
        assert_eq!(p.must_match.len(), 3, "all attrs normalize equal: {p:?}");
    }

    #[test]
    fn calibrate_finds_separating_threshold() {
        let scores = [0.9f32, 0.8, 0.75, 0.3, 0.2, 0.1];
        let labels = [true, true, true, false, false, false];
        let t = calibrate_threshold(&scores, &labels);
        assert!((0.3..=0.75).contains(&t), "threshold {t}");
        // perfect separation at the chosen threshold
        let acc = scores
            .iter()
            .zip(labels.iter())
            .filter(|(&s, &l)| (s >= t) == l)
            .count();
        assert_eq!(acc, 6);
    }

    #[test]
    fn calibrate_f1_handles_skewed_samples() {
        // 2 positives among 10; accuracy would favor predicting nothing,
        // F1 calibration must keep the positives reachable
        let scores = [0.9f32, 0.85, 0.4, 0.3, 0.3, 0.2, 0.2, 0.1, 0.1, 0.05];
        let labels = [
            true, true, false, false, false, false, false, false, false, false,
        ];
        let t = calibrate_threshold_f1(&scores, &labels);
        assert!(t <= 0.85 && t > 0.4, "threshold {t}");
    }

    #[test]
    fn calibrate_with_no_examples_stays_at_half() {
        assert_eq!(calibrate_threshold(&[], &[]), 0.5);
    }

    #[test]
    fn calibrate_prefers_threshold_near_half_on_ties() {
        // every threshold classifies these perfectly; pick the one near 0.5
        let t = calibrate_threshold(&[0.99], &[true]);
        assert!((t - 0.5).abs() < 0.26, "threshold {t}");
    }
}
