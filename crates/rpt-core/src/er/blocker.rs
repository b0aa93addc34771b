//! Token-based blocking with an inverted index.
//!
//! The paper treats blocking as solved ("prior blocking methods are
//! automatic and already work pretty well") — this is a standard
//! high-recall token blocker so the pipeline is complete end-to-end.

use std::collections::{HashMap, HashSet};

use rpt_datagen::ErBenchmark;
use rpt_table::Table;
use rpt_tokenizer::normalize;

/// Blocker settings.
#[derive(Debug, Clone)]
pub struct BlockerConfig {
    /// Tokens appearing in more than this fraction of side-B rows are too
    /// common to block on (stopword suppression).
    pub max_df_frac: f64,
    /// Minimum number of shared (non-stopword) tokens for a candidate.
    pub min_shared: usize,
}

impl Default for BlockerConfig {
    fn default() -> Self {
        Self {
            max_df_frac: 0.25,
            min_shared: 1,
        }
    }
}

/// Blocking quality report (one data series of the Fig. 5 experiment).
#[derive(Debug, Clone)]
pub struct BlockingStats {
    /// Fraction of true matches surviving blocking.
    pub recall: f64,
    /// `1 - candidates / (|A| * |B|)`.
    pub reduction_ratio: f64,
    /// Number of candidate pairs produced.
    pub n_candidates: usize,
}

/// The token blocker.
#[derive(Debug, Clone, Default)]
pub struct Blocker {
    cfg: BlockerConfig,
}

impl Blocker {
    /// Creates a blocker.
    pub fn new(cfg: BlockerConfig) -> Self {
        Self { cfg }
    }

    fn row_tokens(table: &Table, row: usize) -> HashSet<String> {
        let mut out = HashSet::new();
        for v in table.row(row).values() {
            if v.is_null() {
                continue;
            }
            for tok in normalize(&v.render()) {
                out.insert(tok);
            }
        }
        out
    }

    /// Produces candidate `(a_row, b_row)` pairs sharing at least
    /// `min_shared` informative tokens.
    pub fn candidates(&self, a: &Table, b: &Table) -> Vec<(usize, usize)> {
        // document frequency over side B
        let mut index: HashMap<String, Vec<usize>> = HashMap::new();
        for j in 0..b.len() {
            for tok in Self::row_tokens(b, j) {
                index.entry(tok).or_default().push(j);
            }
        }
        let max_df = ((b.len() as f64) * self.cfg.max_df_frac).ceil() as usize;
        let mut out = Vec::new();
        for i in 0..a.len() {
            let mut shared: HashMap<usize, usize> = HashMap::new();
            for tok in Self::row_tokens(a, i) {
                if let Some(rows) = index.get(&tok) {
                    if rows.len() > max_df.max(1) {
                        continue;
                    }
                    for &j in rows {
                        *shared.entry(j).or_insert(0) += 1;
                    }
                }
            }
            for (j, count) in shared {
                if count >= self.cfg.min_shared {
                    out.push((i, j));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Computes blocking quality against a benchmark's ground truth.
    pub fn stats(&self, bench: &ErBenchmark) -> (Vec<(usize, usize)>, BlockingStats) {
        let candidates = self.candidates(&bench.table_a, &bench.table_b);
        let cand_set: HashSet<(usize, usize)> = candidates.iter().copied().collect();
        let matches = bench.all_matches();
        let hit = matches
            .iter()
            .filter(|&&(i, j)| cand_set.contains(&(i, j)))
            .count();
        let total_space = bench.table_a.len() * bench.table_b.len();
        let stats = BlockingStats {
            recall: if matches.is_empty() {
                1.0
            } else {
                hit as f64 / matches.len() as f64
            },
            reduction_ratio: 1.0 - candidates.len() as f64 / total_space.max(1) as f64,
            n_candidates: candidates.len(),
        };
        (candidates, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_datagen::standard_benchmarks;
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;

    #[test]
    fn blocking_has_high_recall_and_real_reduction() {
        let mut rng = SmallRng::seed_from_u64(1);
        let (_, benches) = standard_benchmarks(60, &mut rng);
        for bench in &benches {
            let (cands, stats) = Blocker::default().stats(bench);
            assert!(
                stats.recall >= 0.85,
                "{}: blocking recall {}",
                bench.name,
                stats.recall
            );
            assert!(
                stats.reduction_ratio >= 0.5,
                "{}: reduction {}",
                bench.name,
                stats.reduction_ratio
            );
            assert_eq!(cands.len(), stats.n_candidates);
        }
    }

    #[test]
    fn min_shared_two_is_stricter() {
        let mut rng = SmallRng::seed_from_u64(2);
        let (_, benches) = standard_benchmarks(40, &mut rng);
        let loose = Blocker::default();
        let strict = Blocker::new(BlockerConfig {
            min_shared: 2,
            ..Default::default()
        });
        let b = &benches[0];
        let n_loose = loose.candidates(&b.table_a, &b.table_b).len();
        let n_strict = strict.candidates(&b.table_a, &b.table_b).len();
        assert!(n_strict <= n_loose);
    }

    #[test]
    fn candidates_are_sorted_and_unique() {
        let mut rng = SmallRng::seed_from_u64(3);
        let (_, benches) = standard_benchmarks(30, &mut rng);
        let cands = Blocker::default().candidates(&benches[1].table_a, &benches[1].table_b);
        let mut sorted = cands.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(cands, sorted);
    }
}
