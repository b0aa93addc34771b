//! Data profiling: per-column statistics and approximate functional
//! dependency (AFD) discovery.
//!
//! The paper (§2.2, "Attribute Value Masking") proposes running profiling
//! tools "such as Metanome and CORDS to find (approximate or soft) FDs and
//! then only mask those attribute values that can be determined by other
//! values". This module is that profiler: a CORDS-style pairwise scan that
//! scores, for every ordered column pair `X → Y`, how well the majority `Y`
//! value of each `X`-group predicts `Y` (the *strength* of the AFD, i.e.
//! 1 − g3 error), along with distinct counts and null rates per column.

use std::collections::HashMap;

use crate::table::Table;

/// Per-column summary statistics.
#[derive(Debug, Clone)]
pub struct ColumnProfile {
    /// Column name.
    pub name: String,
    /// Number of distinct non-null values (case-insensitive for text).
    pub distinct: usize,
    /// Fraction of NULLs.
    pub null_rate: f64,
    /// Fraction of non-null values that parse as numeric.
    pub numeric_rate: f64,
    /// Average rendered length of non-null values, in characters.
    pub avg_len: f64,
}

/// An approximate functional dependency candidate `lhs → rhs`.
#[derive(Debug, Clone)]
pub struct FdCandidate {
    /// Determinant column index.
    pub lhs: usize,
    /// Dependent column index.
    pub rhs: usize,
    /// Strength in [0,1]: fraction of rows whose `rhs` value equals the
    /// majority value of their `lhs` group (1.0 = exact FD on this data).
    pub strength: f64,
    /// Number of rows that support the measurement (non-null on both sides).
    pub support: usize,
}

/// Profiling result for a table.
#[derive(Debug, Clone)]
pub struct TableProfile {
    /// One profile per column.
    pub columns: Vec<ColumnProfile>,
    /// AFDs with strength at or above the threshold passed to
    /// [`TableProfile::compute`], sorted by descending strength.
    pub fds: Vec<FdCandidate>,
}

impl TableProfile {
    /// Profiles `table`, keeping AFDs with strength `>= min_strength` and at
    /// least `min_support` supporting rows. AFDs whose determinant is
    /// almost a key (more than 90% distinct values) are discarded: a
    /// near-key trivially "determines" every column without expressing a
    /// real dependency, which would make FD-aware masking equivalent to
    /// uniform masking.
    pub fn compute(table: &Table, min_strength: f64, min_support: usize) -> TableProfile {
        let arity = table.schema().arity();
        let n = table.len();

        let mut columns = Vec::with_capacity(arity);
        for c in 0..arity {
            let mut distinct: HashMap<String, usize> = HashMap::new();
            let mut nulls = 0usize;
            let mut numeric = 0usize;
            let mut total_len = 0usize;
            for t in table.tuples() {
                let v = t.get(c);
                if v.is_null() {
                    nulls += 1;
                    continue;
                }
                *distinct.entry(v.group_key()).or_insert(0) += 1;
                if v.as_f64().is_some() {
                    numeric += 1;
                }
                total_len += v.render().chars().count();
            }
            let non_null = n - nulls;
            columns.push(ColumnProfile {
                name: table.schema().name(c).to_string(),
                distinct: distinct.len(),
                null_rate: if n == 0 { 0.0 } else { nulls as f64 / n as f64 },
                numeric_rate: if non_null == 0 {
                    0.0
                } else {
                    numeric as f64 / non_null as f64
                },
                avg_len: if non_null == 0 {
                    0.0
                } else {
                    total_len as f64 / non_null as f64
                },
            });
        }

        let mut fds = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for lhs in 0..arity {
            for rhs in 0..arity {
                if lhs == rhs {
                    continue;
                }
                if let Some(fd) = afd_strength(table, lhs, rhs) {
                    let lhs_distinct = columns[lhs].distinct as f64;
                    let key_like = fd.support > 0 && lhs_distinct / fd.support as f64 > 0.9;
                    if !key_like && fd.strength >= min_strength && fd.support >= min_support {
                        fds.push(fd);
                    }
                }
            }
        }
        fds.sort_by(|a, b| b.strength.total_cmp(&a.strength));
        TableProfile { columns, fds }
    }

    /// The strongest AFD with `rhs` as dependent, if any survived the cut.
    pub fn best_fd_for(&self, rhs: usize) -> Option<&FdCandidate> {
        self.fds.iter().find(|fd| fd.rhs == rhs)
    }

    /// Columns that appear as the dependent of at least one surviving AFD —
    /// i.e. the columns the paper says are safe to mask during pretraining
    /// ("mask those attribute values that can be determined by other
    /// values").
    pub fn determinable_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.fds.iter().map(|fd| fd.rhs).collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

/// Measures the AFD `lhs → rhs` as 1 − g3/|support|: group rows by the lhs
/// value and count how many carry their group's majority rhs value.
fn afd_strength(table: &Table, lhs: usize, rhs: usize) -> Option<FdCandidate> {
    // group_key(lhs) -> (rhs group_key -> count)
    let mut groups: HashMap<String, HashMap<String, usize>> = HashMap::new();
    let mut support = 0usize;
    for t in table.tuples() {
        let l = t.get(lhs);
        let r = t.get(rhs);
        if l.is_null() || r.is_null() {
            continue;
        }
        support += 1;
        *groups
            .entry(l.group_key())
            .or_default()
            .entry(r.group_key())
            .or_insert(0) += 1;
    }
    if support == 0 {
        return None;
    }
    let kept: usize = groups
        .values()
        .map(|counts| counts.values().copied().max().unwrap_or(0))
        .sum();
    Some(FdCandidate {
        lhs,
        rhs,
        strength: kept as f64 / support as f64,
        support,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Value;

    /// brand determines manufacturer exactly; price is free.
    fn sample() -> Table {
        let mut t = Table::new("p", Schema::text_columns(&["brand", "maker", "price"]));
        let rows = [
            ("iphone", "apple", "999"),
            ("iphone", "apple", "899"),
            ("galaxy", "samsung", "720"),
            ("galaxy", "samsung", "650"),
            ("pixel", "google", "799"),
            ("pixel", "google", "599"),
        ];
        for (b, m, p) in rows {
            t.push_values(vec![b.into(), m.into(), Value::parse(p)]);
        }
        t
    }

    #[test]
    fn exact_fd_has_strength_one() {
        let p = TableProfile::compute(&sample(), 0.9, 2);
        let fd = p
            .fds
            .iter()
            .find(|fd| fd.lhs == 0 && fd.rhs == 1)
            .expect("brand -> maker must be found");
        assert!((fd.strength - 1.0).abs() < 1e-9);
        assert_eq!(fd.support, 6);
    }

    #[test]
    fn free_column_is_not_determined() {
        let p = TableProfile::compute(&sample(), 0.9, 2);
        // brand -> price fails: each brand has two prices (strength 0.5)
        assert!(!p.fds.iter().any(|fd| fd.lhs == 0 && fd.rhs == 2));
    }

    #[test]
    fn approximate_fd_with_one_violation() {
        let mut t = sample();
        // introduce one violation of brand -> maker
        t.push_values(vec!["iphone".into(), "foxconn".into(), Value::Int(1)]);
        let p = TableProfile::compute(&t, 0.8, 2);
        let fd = p.fds.iter().find(|fd| fd.lhs == 0 && fd.rhs == 1).unwrap();
        assert!(
            (fd.strength - 6.0 / 7.0).abs() < 1e-9,
            "strength {}",
            fd.strength
        );
    }

    #[test]
    fn nulls_are_excluded_from_support() {
        let mut t = sample();
        t.push_values(vec![Value::Null, "x".into(), Value::Int(0)]);
        let p = TableProfile::compute(&t, 0.9, 2);
        let fd = p.fds.iter().find(|fd| fd.lhs == 0 && fd.rhs == 1).unwrap();
        assert_eq!(fd.support, 6);
    }

    #[test]
    fn column_profiles_report_stats() {
        let mut t = sample();
        t.push_values(vec![Value::Null, "x".into(), Value::Int(0)]);
        let p = TableProfile::compute(&t, 0.99, 1);
        assert_eq!(p.columns[0].distinct, 3);
        assert!((p.columns[0].null_rate - 1.0 / 7.0).abs() < 1e-9);
        assert!((p.columns[2].numeric_rate - 1.0).abs() < 1e-9);
        assert!(p.columns[1].avg_len > 0.0);
    }

    #[test]
    fn determinable_columns_deduplicates() {
        let p = TableProfile::compute(&sample(), 0.9, 2);
        let d = p.determinable_columns();
        assert!(d.contains(&1), "maker is determined by brand");
        // price (col 2) must not be listed
        assert!(!d.contains(&2));
    }

    #[test]
    fn key_like_determinants_are_discarded() {
        // every price is unique → price would trivially "determine" all
        // columns; such FDs must not be reported
        let p = TableProfile::compute(&sample(), 0.9, 2);
        assert!(
            !p.fds.iter().any(|fd| fd.lhs == 2),
            "near-key lhs produced FDs: {:?}",
            p.fds
        );
    }

    #[test]
    fn empty_table_profiles_cleanly() {
        let t = Table::new("e", Schema::text_columns(&["a", "b"]));
        let p = TableProfile::compute(&t, 0.9, 1);
        assert!(p.fds.is_empty());
        assert_eq!(p.columns[0].distinct, 0);
    }

    #[test]
    fn case_insensitive_grouping_for_text() {
        let mut t = Table::new("c", Schema::text_columns(&["brand", "maker"]));
        t.push_values(vec!["IPhone".into(), "Apple".into()]);
        t.push_values(vec!["iphone".into(), "APPLE".into()]);
        let p = TableProfile::compute(&t, 0.9, 1);
        let fd = p.fds.iter().find(|fd| fd.lhs == 0 && fd.rhs == 1).unwrap();
        assert!((fd.strength - 1.0).abs() < 1e-9);
        assert_eq!(p.columns[0].distinct, 1);
    }
}
