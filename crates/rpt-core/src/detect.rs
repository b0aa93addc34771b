//! Hybrid error detection (§2.2, research opportunity O1: "combine
//! [RPT-C] with other (quantitatively) DC methods").
//!
//! RPT-C is a *repair* model; detection asks which cells are wrong in the
//! first place. The hybrid detector combines two signals:
//!
//! * **model disagreement** — re-predict every cell with the pretrained
//!   RPT-C; low token overlap between the prediction and the current value
//!   is suspicious (the learned, "human-easy categorical" signal);
//! * **numeric outlierness** — a robust z-score (median / MAD) within the
//!   column, the classic quantitative signal the paper suggests pairing
//!   with.
//!
//! A cell is flagged when either signal fires; each suspect carries the
//! model's suggested repair so detection flows directly into repair.

use rpt_nn::metrics::token_f1;
use rpt_table::Table;

use crate::cleaning::{Filler, RptC};

/// One flagged cell.
#[derive(Debug, Clone)]
pub struct Suspect {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// Model/value token overlap in `[0,1]` (low = suspicious).
    pub agreement: f64,
    /// Robust z-score (numeric columns only).
    pub z_score: Option<f64>,
    /// The model's suggested repair.
    pub suggestion: String,
}

/// Detector thresholds.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Flag when token overlap with the model prediction is below this.
    pub min_agreement: f64,
    /// Flag when the robust |z| exceeds this.
    pub max_z: f64,
    /// Skip the model-disagreement signal for numeric cells whose
    /// prediction is numerically close (within this relative error) —
    /// "349.99" vs "339.99" is agreement, not an error.
    pub numeric_tolerance: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            min_agreement: 0.34,
            max_z: 4.0,
            numeric_tolerance: 0.25,
        }
    }
}

/// Median of a sorted slice.
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Robust per-column z-scores via median/MAD. Returns `None` for cells that
/// are not numeric or columns with fewer than 4 numeric values.
pub fn robust_z_scores(table: &Table, col: usize) -> Vec<Option<f64>> {
    let numeric: Vec<Option<f64>> = table.tuples().iter().map(|t| t.get(col).as_f64()).collect();
    let mut values: Vec<f64> = numeric.iter().flatten().copied().collect();
    if values.len() < 4 {
        return vec![None; table.len()];
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let med = median(&values);
    let mut deviations: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
    deviations.sort_by(|a, b| a.total_cmp(b));
    let mad = median(&deviations).max(1e-9);
    // 1.4826 scales MAD to the stddev of a normal distribution
    let scale = 1.4826 * mad;
    numeric
        .into_iter()
        .map(|v| v.map(|x| (x - med) / scale))
        .collect()
}

/// Scans `cols` of `table` with the hybrid detector.
pub fn detect_errors(
    model: &mut RptC,
    table: &Table,
    cols: &[usize],
    cfg: &DetectorConfig,
) -> Vec<Suspect> {
    let vocab = model.encoder().vocab().clone();
    let mut out = Vec::new();
    for &col in cols {
        let zs = robust_z_scores(table, col);
        for (row, tuple) in table.tuples().iter().enumerate() {
            let value = tuple.get(col);
            if value.is_null() {
                continue;
            }
            let prediction = model.fill(table.schema(), tuple, col);
            let gold_tokens = vocab.encode_text(&value.render());
            let mut agreement = token_f1(&prediction.tokens, &gold_tokens);
            // numeric closeness counts as agreement
            if let (Some(actual), Ok(pred)) = (value.as_f64(), prediction.text.parse::<f64>()) {
                let denom = actual.abs().max(pred.abs());
                if denom > 0.0 && (actual - pred).abs() / denom <= cfg.numeric_tolerance {
                    agreement = agreement.max(1.0);
                }
            }
            let z = zs[row];
            let z_fires = z.map(|z| z.abs() > cfg.max_z).unwrap_or(false);
            let model_fires = agreement < cfg.min_agreement;
            if model_fires || z_fires {
                out.push(Suspect {
                    row,
                    col,
                    agreement,
                    z_score: z,
                    suggestion: prediction.text,
                });
            }
        }
    }
    out
}

/// Detection quality against a ground-truth error log.
#[derive(Debug, Clone, Default)]
pub struct DetectionEval {
    /// Flagged cells that are true errors.
    pub true_positives: usize,
    /// Flagged clean cells.
    pub false_positives: usize,
    /// Missed errors.
    pub false_negatives: usize,
}

impl DetectionEval {
    /// Precision (1.0 when nothing flagged).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall (1.0 when there are no errors).
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }
}

/// Scores suspects against the injected-error log (cells restricted to the
/// scanned columns).
pub fn score_detection(
    suspects: &[Suspect],
    errors: &[rpt_datagen::corrupt::InjectedError],
    scanned_cols: &[usize],
) -> DetectionEval {
    use std::collections::HashSet;
    let gold: HashSet<(usize, usize)> = errors
        .iter()
        .filter(|e| scanned_cols.contains(&e.col))
        .map(|e| (e.row, e.col))
        .collect();
    let flagged: HashSet<(usize, usize)> = suspects.iter().map(|s| (s.row, s.col)).collect();
    DetectionEval {
        true_positives: flagged.intersection(&gold).count(),
        false_positives: flagged.difference(&gold).count(),
        false_negatives: gold.difference(&flagged).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_table::{Schema, Value};

    #[test]
    fn robust_z_flags_the_outlier() {
        let mut t = Table::new("z", Schema::text_columns(&["price"]));
        for v in [10.0, 11.0, 10.5, 9.5, 10.2, 9.8, 500.0] {
            t.push_values(vec![Value::Float(v)]);
        }
        let zs = robust_z_scores(&t, 0);
        let big = zs[6].unwrap();
        assert!(big.abs() > 10.0, "outlier z {big}");
        assert!(zs[0].unwrap().abs() < 3.0);
    }

    #[test]
    fn non_numeric_and_small_columns_get_none() {
        let mut t = Table::new("t", Schema::text_columns(&["name"]));
        t.push_values(vec![Value::text("a")]);
        t.push_values(vec![Value::text("b")]);
        assert!(robust_z_scores(&t, 0).iter().all(|z| z.is_none()));
    }

    #[test]
    fn score_detection_counts() {
        let suspects = vec![
            Suspect {
                row: 0,
                col: 1,
                agreement: 0.0,
                z_score: None,
                suggestion: "x".into(),
            },
            Suspect {
                row: 2,
                col: 1,
                agreement: 0.1,
                z_score: None,
                suggestion: "y".into(),
            },
        ];
        let errors = vec![
            rpt_datagen::corrupt::InjectedError {
                row: 0,
                col: 1,
                original: Value::text("gold"),
            },
            rpt_datagen::corrupt::InjectedError {
                row: 5,
                col: 1,
                original: Value::text("gold2"),
            },
        ];
        let eval = score_detection(&suspects, &errors, &[1]);
        assert_eq!(eval.true_positives, 1);
        assert_eq!(eval.false_positives, 1);
        assert_eq!(eval.false_negatives, 1);
        assert!((eval.precision() - 0.5).abs() < 1e-12);
        assert!((eval.recall() - 0.5).abs() < 1e-12);
    }
}
