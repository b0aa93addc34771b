//! A ZeroER-style unsupervised matcher: a two-component Gaussian mixture
//! over similarity features, fit by EM with zero labeled examples
//! (Wu et al., SIGMOD 2020). The match component is identified post hoc as
//! the one with the higher mean jaccard.

use rpt_datagen::ErBenchmark;

use crate::features::{pair_features, FEATURE_NAMES};
use crate::PairScorer;

/// Diagonal Gaussian parameters for one mixture component.
#[derive(Debug, Clone)]
struct Component {
    weight: f64,
    mean: Vec<f64>,
    var: Vec<f64>,
}

impl Component {
    fn log_density(&self, x: &[f64]) -> f64 {
        let mut ll = self.weight.max(1e-12).ln();
        for ((&xi, &mu), &v) in x.iter().zip(self.mean.iter()).zip(self.var.iter()) {
            let v = v.max(1e-4);
            ll += -0.5 * ((xi - mu) * (xi - mu) / v + v.ln() + (2.0 * std::f64::consts::PI).ln());
        }
        ll
    }
}

/// The unsupervised matcher.
pub struct ZeroEr {
    /// EM iterations.
    pub em_iters: usize,
    /// Expected prior of the match class. `None` (the default) estimates
    /// it from the data as the fraction of candidates with whole-tuple
    /// jaccard ≥ 0.5, clamped to `[0.02, 0.30]` — ZeroER's match-prior
    /// regularization with an unsupervised estimate.
    pub match_prior: Option<f64>,
    components: Option<(Component, Component)>, // (unmatch, match)
}

impl Default for ZeroEr {
    fn default() -> Self {
        Self {
            em_iters: 80,
            match_prior: None,
            components: None,
        }
    }
}

impl ZeroEr {
    /// Creates a matcher with defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a matcher with explicit settings.
    pub fn with(em_iters: usize, match_prior: Option<f64>) -> Self {
        Self {
            em_iters,
            match_prior,
            components: None,
        }
    }

    /// One M-step over both components with a **pooled** variance: the two
    /// components share a per-dimension variance computed over all points
    /// around their assigned means. This prevents the match component from
    /// inflating its variance and swallowing moderate-similarity negatives
    /// (the classic EM chaining failure on skewed candidate sets).
    fn m_step(comps: &mut (Component, Component), xs: &[Vec<f64>], resp: &[f64], prior: f64) {
        let d = comps.0.mean.len();
        let n = xs.len() as f64;
        for (ci, comp) in [&mut comps.0, &mut comps.1].into_iter().enumerate() {
            let w: Vec<f64> = resp
                .iter()
                .map(|&r| if ci == 1 { r } else { 1.0 - r })
                .collect();
            let wsum: f64 = w.iter().sum::<f64>().max(1e-9);
            for k in 0..d {
                comp.mean[k] = xs
                    .iter()
                    .zip(w.iter())
                    .map(|(x, &wi)| wi * x[k])
                    .sum::<f64>()
                    / wsum;
            }
            comp.weight = if ci == 1 { prior } else { 1.0 - prior };
        }
        // pooled variance around the responsible component's mean
        for k in 0..d {
            let mut acc = 0.0;
            for (x, &r) in xs.iter().zip(resp.iter()) {
                let d1 = x[k] - comps.1.mean[k];
                let d0 = x[k] - comps.0.mean[k];
                acc += r * d1 * d1 + (1.0 - r) * d0 * d0;
            }
            let v = (acc / n).max(1e-4);
            comps.0.var[k] = v;
            comps.1.var[k] = v;
        }
    }

    /// Fits the mixture to the candidate pairs of a benchmark
    /// (fully unsupervised) and returns P(match) for each.
    pub fn fit_predict(&mut self, bench: &ErBenchmark, pairs: &[(usize, usize)]) -> Vec<f32> {
        let xs: Vec<Vec<f64>> = pairs
            .iter()
            .map(|&(i, j)| {
                pair_features(
                    bench.table_a.schema(),
                    bench.table_a.row(i),
                    bench.table_b.schema(),
                    bench.table_b.row(j),
                )
            })
            .collect();
        if xs.is_empty() {
            return Vec::new();
        }
        let d = FEATURE_NAMES.len();

        let prior = self.match_prior.unwrap_or_else(|| {
            let hi = xs.iter().filter(|x| x[0] >= 0.5).count();
            (hi as f64 / xs.len() as f64).clamp(0.02, 0.30)
        });

        // init: the top `prior` quantile by jaccard seeds the match
        // component (ZeroER's match-prior regularization)
        let mut jac: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        jac.sort_by(|a, b| a.total_cmp(b));
        let q_idx = ((jac.len() as f64) * (1.0 - prior)) as usize;
        let cut = jac[q_idx.min(jac.len() - 1)];
        let mut resp: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] >= cut { 0.9 } else { 0.1 })
            .collect();

        let mut comps = (
            Component {
                weight: 1.0 - prior,
                mean: vec![0.0; d],
                var: vec![1.0; d],
            },
            Component {
                weight: prior,
                mean: vec![0.0; d],
                var: vec![1.0; d],
            },
        );

        for _ in 0..self.em_iters {
            Self::m_step(&mut comps, &xs, &resp, prior);
            // E step
            for (r, x) in resp.iter_mut().zip(xs.iter()) {
                let l0 = comps.0.log_density(x);
                let l1 = comps.1.log_density(x);
                let m = l0.max(l1);
                let p1 = (l1 - m).exp() / ((l0 - m).exp() + (l1 - m).exp());
                *r = p1;
            }
        }
        // identify the match component as the higher-jaccard one
        if comps.0.mean[0] > comps.1.mean[0] {
            std::mem::swap(&mut comps.0, &mut comps.1);
            for r in resp.iter_mut() {
                *r = 1.0 - *r;
            }
        }
        self.components = Some(comps);
        resp.into_iter().map(|r| r as f32).collect()
    }
}

impl PairScorer for ZeroEr {
    fn score(&mut self, bench: &ErBenchmark, pairs: &[(usize, usize)]) -> Vec<f32> {
        self.fit_predict(bench, pairs)
    }

    fn name(&self) -> &str {
        "ZeroER"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_datagen::standard_benchmarks;
    use rpt_nn::metrics::BinaryConfusion;
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;

    #[test]
    fn unsupervised_em_beats_chance_on_candidates() {
        let mut rng = SmallRng::seed_from_u64(5);
        let (_u, benches) = standard_benchmarks(60, &mut rng);
        let bench = &benches[0];
        // candidate set = full cross product sampled to keep the test fast
        let mut pairs = Vec::new();
        for i in 0..bench.table_a.len() {
            for j in 0..bench.table_b.len() {
                if bench.is_match(i, j) || (i * 7 + j) % 23 == 0 {
                    pairs.push((i, j));
                }
            }
        }
        let mut zeroer = ZeroEr::new();
        let scores = zeroer.fit_predict(bench, &pairs);
        let conf = BinaryConfusion::from_pairs(
            scores
                .iter()
                .map(|&s| s >= 0.5)
                .zip(pairs.iter().map(|&(i, j)| bench.is_match(i, j))),
        );
        assert!(
            conf.f1() > 0.3,
            "ZeroER F1 {:.3} (p {:.2} r {:.2})",
            conf.f1(),
            conf.precision(),
            conf.recall()
        );
    }

    #[test]
    fn empty_pairs_yield_empty_scores() {
        let mut rng = SmallRng::seed_from_u64(5);
        let (_u, benches) = standard_benchmarks(10, &mut rng);
        let mut zeroer = ZeroEr::new();
        assert!(zeroer.fit_predict(&benches[0], &[]).is_empty());
    }

    #[test]
    fn scores_are_probabilities() {
        let mut rng = SmallRng::seed_from_u64(6);
        let (_u, benches) = standard_benchmarks(20, &mut rng);
        let pairs: Vec<(usize, usize)> = (0..benches[1].table_a.len())
            .map(|i| (i, i % benches[1].table_b.len()))
            .collect();
        let mut zeroer = ZeroEr::new();
        let scores = zeroer.fit_predict(&benches[1], &pairs);
        assert_eq!(scores.len(), pairs.len());
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }
}
