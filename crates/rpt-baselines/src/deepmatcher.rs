//! A DeepMatcher-style supervised matcher (Mudgal et al., SIGMOD 2018):
//! a small neural network over similarity features, trained on hundreds of
//! labeled pairs **from the target dataset** — which is exactly what the
//! paper's Table 2 contrasts RPT-E against (RPT-E never sees target
//! labels).

use rpt_datagen::{ErBenchmark, PairSet};
use rpt_rng::SeedableRng;
use rpt_rng::SliceRandom;
use rpt_rng::SmallRng;
use rpt_tensor::{clip_global_norm, init, Adam, AdamConfig, ParamStore, Tape, Tensor};

use crate::features::{pair_features, FEATURE_NAMES};
use crate::PairScorer;

/// The supervised feature-MLP matcher.
pub struct DeepMatcherLike {
    params: ParamStore,
    ids: (
        rpt_tensor::ParamId, // w1 [d, h]
        rpt_tensor::ParamId, // b1 [h]
        rpt_tensor::ParamId, // w2 [h, 2]
        rpt_tensor::ParamId, // b2 [2]
    ),
    hidden: usize,
    /// Training steps.
    pub steps: usize,
    /// Learning rate.
    pub lr: f32,
    /// Batch size.
    pub batch: usize,
    seed: u64,
}

impl DeepMatcherLike {
    /// Builds an untrained matcher.
    pub fn new(seed: u64) -> Self {
        let d = FEATURE_NAMES.len();
        let hidden = 16;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut params = ParamStore::new();
        let w1 = params.register("dm.w1", init::xavier_uniform(d, hidden, &mut rng));
        let b1 = params.register("dm.b1", Tensor::zeros(&[hidden]));
        let w2 = params.register("dm.w2", init::xavier_uniform(hidden, 2, &mut rng));
        let b2 = params.register("dm.b2", Tensor::zeros(&[2]));
        Self {
            params,
            ids: (w1, b1, w2, b2),
            hidden,
            steps: 400,
            lr: 5e-3,
            batch: 32,
            seed,
        }
    }

    fn forward_logits(&mut self, tape: &Tape, xs: &[Vec<f64>]) -> rpt_tensor::Var {
        let n = xs.len();
        let d = FEATURE_NAMES.len();
        let flat: Vec<f32> = xs
            .iter()
            .flat_map(|x| x.iter().map(|&v| v as f32))
            .collect();
        let x = tape.leaf(Tensor::from_vec(flat, &[n, d]).expect("feature matrix"));
        let (w1, b1, w2, b2) = self.ids;
        let w1 = self.params.bind(tape, w1);
        let b1 = self.params.bind(tape, b1);
        let w2 = self.params.bind(tape, w2);
        let b2 = self.params.bind(tape, b2);
        let h = tape.add(tape.matmul(x, w1), b1);
        let h = tape.relu(h);
        let _ = self.hidden;
        tape.add(tape.matmul(h, w2), b2)
    }

    /// Trains on labeled pairs of the target benchmark.
    pub fn train(&mut self, bench: &ErBenchmark, pairs: &PairSet) -> Vec<f32> {
        let xs: Vec<(Vec<f64>, usize)> = pairs
            .pairs
            .iter()
            .map(|p| {
                (
                    pair_features(
                        bench.table_a.schema(),
                        bench.table_a.row(p.a),
                        bench.table_b.schema(),
                        bench.table_b.row(p.b),
                    ),
                    p.label as usize,
                )
            })
            .collect();
        assert!(!xs.is_empty(), "DeepMatcher training set is empty");
        let pos: Vec<&(Vec<f64>, usize)> = xs.iter().filter(|(_, l)| *l == 1).collect();
        let neg: Vec<&(Vec<f64>, usize)> = xs.iter().filter(|(_, l)| *l == 0).collect();
        assert!(!pos.is_empty() && !neg.is_empty(), "need both classes");

        let mut adam = Adam::new(AdamConfig {
            lr: self.lr,
            ..Default::default()
        });
        let mut rng = SmallRng::seed_from_u64(self.seed.wrapping_add(1));
        let mut losses = Vec::with_capacity(self.steps);
        for _ in 0..self.steps {
            let mut feats = Vec::with_capacity(self.batch);
            let mut labels = Vec::with_capacity(self.batch);
            for k in 0..self.batch {
                let &(x, l) = if k % 2 == 0 {
                    pos.choose(&mut rng).unwrap()
                } else {
                    neg.choose(&mut rng).unwrap()
                };
                feats.push(x.clone());
                labels.push(*l);
            }
            self.params.begin_step();
            let tape = Tape::new();
            let logits = self.forward_logits(&tape, &feats);
            let loss = tape.cross_entropy(logits, &labels, None, 0.0);
            losses.push(tape.value(loss).data()[0]);
            let mut grads = tape.backward(loss);
            let mut pg = self.params.collect_grads(&mut grads);
            clip_global_norm(&mut pg, 5.0);
            adam.step(&mut self.params, &pg);
        }
        losses
    }
}

impl PairScorer for DeepMatcherLike {
    fn score(&mut self, bench: &ErBenchmark, pairs: &[(usize, usize)]) -> Vec<f32> {
        if pairs.is_empty() {
            return Vec::new();
        }
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
        self.params.begin_step();
        let tape = Tape::new();
        let logits = self.forward_logits(&tape, &xs);
        let probs = tape.value(tape.softmax_last(logits));
        probs.data().chunks(2).map(|c| c[1]).collect()
    }

    fn name(&self) -> &str {
        "DeepMatcher"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_datagen::standard_benchmarks;
    use rpt_nn::metrics::BinaryConfusion;

    #[test]
    fn supervised_matcher_learns_target_benchmark() {
        let mut rng = SmallRng::seed_from_u64(8);
        let (universe, benches) = standard_benchmarks(60, &mut rng);
        let bench = &benches[1];
        let all = bench.labeled_pairs(4, &universe, &mut rng);
        // split train/test
        let (train, test): (Vec<_>, Vec<_>) =
            all.pairs.iter().enumerate().partition(|(i, _)| i % 3 != 0);
        let train_set = PairSet {
            pairs: train.into_iter().map(|(_, p)| *p).collect(),
        };
        let test_pairs: Vec<_> = test.into_iter().map(|(_, p)| *p).collect();

        let mut dm = DeepMatcherLike::new(3);
        let losses = dm.train(bench, &train_set);
        assert!(losses.last().unwrap() < &losses[0]);

        let idx: Vec<(usize, usize)> = test_pairs.iter().map(|p| (p.a, p.b)).collect();
        let scores = dm.score(bench, &idx);
        let conf = BinaryConfusion::from_pairs(
            scores
                .iter()
                .map(|&s| s >= 0.5)
                .zip(test_pairs.iter().map(|p| p.label)),
        );
        assert!(
            conf.f1() > 0.55,
            "DeepMatcher F1 {:.3} (p {:.2} r {:.2})",
            conf.f1(),
            conf.precision(),
            conf.recall()
        );
    }

    #[test]
    fn scores_are_probabilities_and_aligned() {
        let mut rng = SmallRng::seed_from_u64(9);
        let (_u, benches) = standard_benchmarks(10, &mut rng);
        let mut dm = DeepMatcherLike::new(4);
        let pairs = vec![(0, 0), (1, 2), (3, 4)];
        let scores = dm.score(&benches[0], &pairs);
        assert_eq!(scores.len(), 3);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
        assert!(dm.score(&benches[0], &[]).is_empty());
    }
}
