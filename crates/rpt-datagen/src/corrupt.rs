//! Error injection for the dirty-data experiments (research opportunity O2
//! of §2.2: "Many tables are dirty. Pretraining RPT-C on these dirty tables
//! may mislead RPT-C.").

use rpt_rng::Rng;
use rpt_table::{Table, Value};

use crate::render::inject_typo;

/// What fraction of cells to corrupt, and how.
#[derive(Debug, Clone)]
pub struct ErrorSpec {
    /// Fraction of cells set to NULL.
    pub null_rate: f64,
    /// Fraction of text cells given a typo.
    pub typo_rate: f64,
    /// Fraction of cells replaced by a value from another random row of the
    /// same column (a plausible-but-wrong value, the hardest error type).
    pub swap_rate: f64,
}

impl ErrorSpec {
    /// No corruption.
    pub fn none() -> Self {
        Self {
            null_rate: 0.0,
            typo_rate: 0.0,
            swap_rate: 0.0,
        }
    }

    /// A uniform corruption level across all three error types.
    pub fn uniform(rate: f64) -> Self {
        Self {
            null_rate: rate / 3.0,
            typo_rate: rate / 3.0,
            swap_rate: rate / 3.0,
        }
    }

    /// Total corruption probability per cell.
    pub fn total(&self) -> f64 {
        self.null_rate + self.typo_rate + self.swap_rate
    }
}

/// A record of one injected error (for evaluating detection/repair).
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedError {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// The clean value that was replaced.
    pub original: Value,
}

/// Corrupts `table` in place according to `spec`, returning the log of
/// injected errors (ground truth for repair evaluation).
pub fn inject_errors(
    table: &mut Table,
    spec: &ErrorSpec,
    rng: &mut (impl Rng + ?Sized),
) -> Vec<InjectedError> {
    assert!(spec.total() <= 1.0, "corruption rates sum above 1.0");
    let n_rows = table.len();
    let arity = table.schema().arity();
    let mut log = Vec::new();
    // Pre-collect column values for swap errors (clean values only).
    let mut column_pool: Vec<Vec<Value>> = Vec::with_capacity(arity);
    for c in 0..arity {
        column_pool.push(
            table
                .tuples()
                .iter()
                .map(|t| t.get(c).clone())
                .filter(|v| !v.is_null())
                .collect(),
        );
    }
    #[allow(clippy::needless_range_loop)]
    for row in 0..n_rows {
        for col in 0..arity {
            if table.row(row).get(col).is_null() {
                continue;
            }
            let roll: f64 = rng.gen();
            let new_value = if roll < spec.null_rate {
                Some(Value::Null)
            } else if roll < spec.null_rate + spec.typo_rate {
                match table.row(row).get(col) {
                    Value::Text(s) => Some(Value::text(
                        s.split_whitespace()
                            .map(|tok| inject_typo(tok, rng))
                            .collect::<Vec<_>>()
                            .join(" "),
                    )),
                    // numeric typo: perturb by one digit-ish amount
                    Value::Int(i) => Some(Value::Int(i + rng.gen_range(-9..=9).max(1 - *i))),
                    Value::Float(f) => Some(Value::Float(f * (1.0 + rng.gen_range(-0.3..0.3)))),
                    Value::Null => None,
                }
            } else if roll < spec.total() {
                let pool = &column_pool[col];
                if pool.len() > 1 {
                    let mut pick = pool[rng.gen_range(0..pool.len())].clone();
                    let mut guard = 0;
                    while &pick == table.row(row).get(col) && guard < 10 {
                        pick = pool[rng.gen_range(0..pool.len())].clone();
                        guard += 1;
                    }
                    Some(pick)
                } else {
                    None
                }
            } else {
                None
            };
            if let Some(v) = new_value {
                if &v == table.row(row).get(col) {
                    continue;
                }
                let original = table.tuples_mut()[row].replace(col, v);
                log.push(InjectedError { row, col, original });
            }
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;
    use rpt_table::Schema;

    fn table() -> Table {
        let mut t = Table::new("t", Schema::text_columns(&["a", "b"]));
        for i in 0..200 {
            t.push_values(vec![Value::text(format!("item {i}")), Value::Int(i as i64)]);
        }
        t
    }

    #[test]
    fn zero_spec_injects_nothing() {
        let mut t = table();
        let log = inject_errors(&mut t, &ErrorSpec::none(), &mut SmallRng::seed_from_u64(1));
        assert!(log.is_empty());
    }

    #[test]
    fn corruption_rate_roughly_matches_spec() {
        let mut t = table();
        let log = inject_errors(
            &mut t,
            &ErrorSpec::uniform(0.3),
            &mut SmallRng::seed_from_u64(2),
        );
        let cells = 400.0;
        let rate = log.len() as f64 / cells;
        assert!(
            (0.15..=0.40).contains(&rate),
            "rate {rate} far from requested 0.3"
        );
    }

    #[test]
    fn log_records_recoverable_originals() {
        let clean = table();
        let mut dirty = clean.clone();
        let log = inject_errors(
            &mut dirty,
            &ErrorSpec::uniform(0.2),
            &mut SmallRng::seed_from_u64(3),
        );
        assert!(!log.is_empty());
        for err in &log {
            assert_eq!(clean.row(err.row).get(err.col), &err.original);
            assert_ne!(dirty.row(err.row).get(err.col), &err.original);
        }
        // repairing from the log restores the clean table
        for err in &log {
            dirty.tuples_mut()[err.row].replace(err.col, err.original.clone());
        }
        for (c, d) in clean.tuples().iter().zip(dirty.tuples().iter()) {
            assert_eq!(c.values(), d.values());
        }
    }

    #[test]
    fn null_errors_null_out() {
        let mut t = table();
        let spec = ErrorSpec {
            null_rate: 0.5,
            typo_rate: 0.0,
            swap_rate: 0.0,
        };
        let log = inject_errors(&mut t, &spec, &mut SmallRng::seed_from_u64(4));
        for err in &log {
            assert!(t.row(err.row).get(err.col).is_null());
        }
    }

    #[test]
    #[should_panic(expected = "sum above")]
    fn overfull_spec_rejected() {
        let mut t = table();
        let spec = ErrorSpec {
            null_rate: 0.5,
            typo_rate: 0.4,
            swap_rate: 0.3,
        };
        inject_errors(&mut t, &spec, &mut SmallRng::seed_from_u64(5));
    }
}
