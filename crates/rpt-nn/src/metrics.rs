//! Evaluation metrics shared across the RPT experiments, plus the host-side
//! logits helpers ([`log_softmax_row`], [`argmax`]) shared by the decoding
//! and evaluation code paths.

/// Log-softmax of one logits row (host side): `x - logsumexp(x)`, computed
/// with the max-subtraction trick for stability. The max reduction, the
/// `exp` and the final shift use the bit-identical SIMD kernels from
/// `rpt-tensor`; the exp-sum adds in ascending order on both paths (see
/// DESIGN.md).
pub fn log_softmax_row(row: &[f32]) -> Vec<f32> {
    let lse = log_sum_exp(row);
    let mut out = row.to_vec();
    rpt_tensor::simd::shift_in_place(&mut out, lse);
    out
}

/// `logsumexp(row)`, the shift [`log_softmax_row`] subtracts: element `i`
/// of the log-softmax is exactly `row[i] - log_sum_exp(row)`, so callers
/// that need one entry or a running argmax skip the row copy.
pub fn log_sum_exp(row: &[f32]) -> f32 {
    let max = rpt_tensor::simd::row_max(row);
    max + rpt_tensor::simd::exp_sum(row, max).ln()
}

/// Index of the maximum element; ties break toward the last occurrence
/// (the `max_by` convention).
///
/// # Panics
/// On an empty slice.
pub fn argmax(xs: &[f32]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("argmax of empty slice")
}

/// Binary-classification confusion counts, with precision / recall / F1 —
/// the F-measure of the paper's Table 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinaryConfusion {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
    /// True negatives.
    pub tn: usize,
}

impl BinaryConfusion {
    /// Tallies predictions against gold labels.
    pub fn from_pairs(pred_gold: impl IntoIterator<Item = (bool, bool)>) -> Self {
        let mut c = Self::default();
        for (p, g) in pred_gold {
            c.record(p, g);
        }
        c
    }

    /// Records one `(prediction, gold)` pair.
    pub fn record(&mut self, pred: bool, gold: bool) {
        match (pred, gold) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, true) => self.fn_ += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Precision (1.0 when nothing was predicted positive).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall (1.0 when there were no gold positives).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F-measure (harmonic mean of precision and recall).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let total = self.tp + self.fp + self.fn_ + self.tn;
        if total == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / total as f64
        }
    }
}

/// Token-level F1 between a prediction and a gold sequence (bag-of-tokens
/// overlap, SQuAD-style) — used for partially-correct value predictions
/// like the "write brothers" row of the paper's Table 1.
pub fn token_f1<T: PartialEq + Clone>(pred: &[T], gold: &[T]) -> f64 {
    if pred.is_empty() && gold.is_empty() {
        return 1.0;
    }
    if pred.is_empty() || gold.is_empty() {
        return 0.0;
    }
    let mut gold_pool: Vec<Option<&T>> = gold.iter().map(Some).collect();
    let mut overlap = 0usize;
    for p in pred {
        if let Some(slot) = gold_pool
            .iter_mut()
            .find(|s| s.map(|g| g == p).unwrap_or(false))
        {
            *slot = None;
            overlap += 1;
        }
    }
    if overlap == 0 {
        return 0.0;
    }
    let precision = overlap as f64 / pred.len() as f64;
    let recall = overlap as f64 / gold.len() as f64;
    2.0 * precision * recall / (precision + recall)
}

/// Exact match between two sequences.
pub fn exact_match<T: PartialEq>(pred: &[T], gold: &[T]) -> bool {
    pred == gold
}

/// Relative numeric closeness in [0,1]: `1 - |a-b| / max(|a|,|b|)`,
/// clamped at 0 — used for the paper's price predictions ("9" vs "9.99"
/// counts as close, "$1.99" vs "269.99" does not).
pub fn numeric_closeness(pred: f64, gold: f64) -> f64 {
    let denom = pred.abs().max(gold.abs());
    if denom == 0.0 {
        return 1.0;
    }
    (1.0 - (pred - gold).abs() / denom).max(0.0)
}

/// Running mean helper for experiment harnesses.
#[derive(Debug, Clone, Default)]
pub struct Mean {
    sum: f64,
    n: usize,
}

impl Mean {
    /// Adds an observation.
    pub fn add(&mut self, x: f64) {
        self.sum += x;
        self.n += 1;
    }

    /// The mean (0.0 when empty).
    pub fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_softmax_row_normalizes() {
        let lp = log_softmax_row(&[1.0, 2.0, 3.0]);
        let total: f32 = lp.iter().map(|&x| x.exp()).sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(lp[2] > lp[1] && lp[1] > lp[0]);
    }

    #[test]
    fn argmax_breaks_ties_toward_last() {
        assert_eq!(argmax(&[0.0, 3.0, 1.0]), 1);
        assert_eq!(argmax(&[2.0, 2.0]), 1);
        assert_eq!(argmax(&[f32::NEG_INFINITY, -1.0]), 1);
    }

    #[test]
    fn confusion_prf() {
        let c = BinaryConfusion::from_pairs([
            (true, true),
            (true, true),
            (true, false),
            (false, true),
            (false, false),
        ]);
        assert_eq!((c.tp, c.fp, c.fn_, c.tn), (2, 1, 1, 1));
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.f1() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.accuracy() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn degenerate_confusions() {
        let none = BinaryConfusion::default();
        assert_eq!(none.precision(), 1.0);
        assert_eq!(none.recall(), 1.0);
        assert_eq!(none.accuracy(), 0.0);
        let all_neg = BinaryConfusion::from_pairs([(false, false), (false, false)]);
        assert_eq!(all_neg.f1(), 1.0, "vacuous perfection on all-negative data");
    }

    #[test]
    fn token_f1_counts_multiset_overlap() {
        assert_eq!(token_f1(&["a", "b"], &["a", "b"]), 1.0);
        assert_eq!(token_f1::<&str>(&[], &[]), 1.0);
        assert_eq!(token_f1(&["a"], &[]), 0.0);
        assert_eq!(token_f1(&["x"], &["y"]), 0.0);
        // "write brothers" vs "write brothers dramatica": p=1, r=2/3
        let f1 = token_f1(&["write", "brothers"], &["write", "brothers", "dramatica"]);
        assert!((f1 - 0.8).abs() < 1e-12);
        // duplicates are not double counted
        let f1 = token_f1(&["a", "a"], &["a"]);
        assert!((f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn numeric_closeness_behaviour() {
        assert_eq!(numeric_closeness(0.0, 0.0), 1.0);
        assert!(numeric_closeness(9.0, 9.99) > 0.85);
        assert!(numeric_closeness(1.99, 269.99) < 0.05);
        assert_eq!(numeric_closeness(-5.0, 5.0), 0.0, "clamped at zero");
    }

    #[test]
    fn mean_accumulates() {
        let mut m = Mean::default();
        assert_eq!(m.get(), 0.0);
        m.add(1.0);
        m.add(3.0);
        assert_eq!(m.get(), 2.0);
        assert_eq!(m.count(), 2);
    }
}
