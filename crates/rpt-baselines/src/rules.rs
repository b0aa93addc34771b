//! A trivial jaccard-threshold matcher: the Magellan-era rule-based floor.

use rpt_datagen::ErBenchmark;

use crate::features::pair_features;
use crate::PairScorer;

/// Scores pairs by whole-tuple token jaccard.
#[derive(Debug, Clone)]
pub struct JaccardMatcher {
    /// Decision threshold on jaccard similarity.
    pub threshold: f32,
}

impl Default for JaccardMatcher {
    fn default() -> Self {
        Self { threshold: 0.5 }
    }
}

impl PairScorer for JaccardMatcher {
    fn score(&mut self, bench: &ErBenchmark, pairs: &[(usize, usize)]) -> Vec<f32> {
        pairs
            .iter()
            .map(|&(i, j)| {
                pair_features(
                    bench.table_a.schema(),
                    bench.table_a.row(i),
                    bench.table_b.schema(),
                    bench.table_b.row(j),
                )[0] as f32
            })
            .collect()
    }

    fn name(&self) -> &str {
        "Jaccard"
    }

    fn threshold(&self) -> f32 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_datagen::standard_benchmarks;
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;

    #[test]
    fn matches_score_higher_than_random_pairs_on_average() {
        let mut rng = SmallRng::seed_from_u64(2);
        let (_u, benches) = standard_benchmarks(40, &mut rng);
        let bench = &benches[2];
        let matches = bench.all_matches();
        let mut m = JaccardMatcher::default();
        let match_scores = m.score(bench, &matches);
        let randoms: Vec<(usize, usize)> = (0..matches.len())
            .map(|k| (k % bench.table_a.len(), (k * 13 + 5) % bench.table_b.len()))
            .filter(|&(i, j)| !bench.is_match(i, j))
            .collect();
        let random_scores = m.score(bench, &randoms);
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
        assert!(
            mean(&match_scores) > mean(&random_scores) + 0.1,
            "jaccard fails to separate: {} vs {}",
            mean(&match_scores),
            mean(&random_scores)
        );
    }
}
